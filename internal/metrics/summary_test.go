package metrics

import (
	"math"
	"sort"
	"strings"
	"testing"

	"tcast/internal/rng"
	"tcast/internal/stats"
)

func TestSummaryObserveAndSnapshot(t *testing.T) {
	r := New()
	s := r.Summary("session_slots", "alg", "2tbins")
	if r.Summary("session_slots", "alg", "2tbins") != s {
		t.Fatalf("Summary did not return the same handle")
	}
	for i := 1; i <= 1000; i++ {
		s.Observe(float64(i))
	}
	if n := s.Snapshot().Count; n != 1000 {
		t.Fatalf("count %d", n)
	}
	snap := r.Snapshot()
	if len(snap.Summaries) != 1 {
		t.Fatalf("summaries in snapshot: %d", len(snap.Summaries))
	}
	sv := snap.Summaries[0]
	if sv.Name != `session_slots{alg="2tbins"}` {
		t.Errorf("name %q", sv.Name)
	}
	if sv.Count != 1000 || sv.Sum != 500500 || sv.Min != 1 || sv.Max != 1000 {
		t.Errorf("count/sum/min/max: %+v", sv)
	}
	if len(sv.Quantiles) != 3 {
		t.Fatalf("quantile points: %d", len(sv.Quantiles))
	}
	for _, qp := range sv.Quantiles {
		want := qp.Q * 999
		if math.Abs(qp.Value-want)/want > 0.02 {
			t.Errorf("q=%g: %v, want ~%v", qp.Q, qp.Value, want)
		}
	}
}

func TestSummaryExposition(t *testing.T) {
	r := New()
	s := r.Summary("poll_bin_size")
	for i := 0; i < 100; i++ {
		s.Observe(float64(1 + i%10))
	}
	r.Summary("empty_summary") // no observations: only _sum/_count emitted

	var text strings.Builder
	if err := WriteText(&text, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"poll_bin_size count=100", "  q=0.5 ", "  q=0.99 ", "empty_summary count=0"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text dump missing %q:\n%s", want, text.String())
		}
	}

	var prom strings.Builder
	if err := WritePrometheus(&prom, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE poll_bin_size summary",
		`poll_bin_size{quantile="0.5"}`,
		`poll_bin_size{quantile="0.99"}`,
		"poll_bin_size_sum ",
		"poll_bin_size_count 100",
		"empty_summary_count 0",
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("prometheus dump missing %q:\n%s", want, prom.String())
		}
	}
	if strings.Contains(prom.String(), `empty_summary{quantile`) {
		t.Errorf("empty summary emitted quantile series:\n%s", prom.String())
	}
}

// adversarialInputs builds the distributions the rank-error bound is
// checked against: constant (every value in one bucket), bimodal (a gap
// the sketch must not interpolate across), and heavy-tailed (Pareto-ish,
// exercising many decades of buckets).
func adversarialInputs(n int) map[string][]float64 {
	r := rng.New(0xa11ce)
	constant := make([]float64, n)
	bimodal := make([]float64, n)
	heavy := make([]float64, n)
	zeros := make([]float64, n)
	for i := 0; i < n; i++ {
		constant[i] = 42
		if i%3 == 0 {
			bimodal[i] = 2
		} else {
			bimodal[i] = 5000
		}
		// Pareto(alpha=1.2) via inverse CDF on a uniform in (0,1).
		u := (float64(r.Uint64()>>11) + 0.5) / (1 << 53)
		heavy[i] = math.Pow(u, -1/1.2)
		if i%7 == 0 {
			zeros[i] = 0
		} else {
			zeros[i] = float64(i % 97)
		}
	}
	return map[string][]float64{
		"constant": constant,
		"bimodal":  bimodal,
		"heavy":    heavy,
		"zeroes":   zeros,
	}
}

// TestQuantileRankError checks the DDSketch guarantee: the estimate at p
// is within relative error alpha of the true order statistic at rank
// floor(p*(n-1)) (compared against both neighbors of the fractional
// rank, since stats.Quantiles interpolates).
func TestQuantileRankError(t *testing.T) {
	const n = 20000
	const alpha = 0.01
	for name, sample := range adversarialInputs(n) {
		t.Run(name, func(t *testing.T) {
			s := NewSummary()
			for _, v := range sample {
				s.Observe(v)
			}
			sorted := append([]float64(nil), sample...)
			sort.Float64s(sorted)
			for _, p := range []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1} {
				got := s.q.value(p)
				pos := p * float64(n-1)
				lo := sorted[int(math.Floor(pos))]
				hi := sorted[int(math.Ceil(pos))]
				// Accept the estimate if it is within alpha of either
				// neighboring order statistic.
				const slack = 1e-12
				okAgainst := func(want float64) bool {
					return math.Abs(got-want) <= alpha*math.Abs(want)+slack
				}
				if !okAgainst(lo) && !okAgainst(hi) {
					t.Errorf("p=%v: got %v, want within %v%% of [%v, %v]", p, got, alpha*100, lo, hi)
				}
			}
			// Cross-check the exact path: stats.Quantiles at a p landing
			// exactly on an integer rank must agree within alpha.
			exact := stats.Quantiles(sample, 0.5)
			est := s.q.value(0.5)
			pos := 0.5 * float64(n-1)
			if pos == math.Trunc(pos) {
				if math.Abs(est-exact[0]) > alpha*math.Abs(exact[0])+1e-12 {
					t.Errorf("median: sketch %v vs exact %v exceeds %v%%", est, exact[0], alpha*100)
				}
			}
		})
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	s := NewSummary()
	s.Observe(math.NaN())
	if sv := s.Snapshot(); sv.Count != 0 || sv.Sum != 0 {
		t.Fatalf("NaN observed: %+v", sv)
	}
	s.Observe(-5)
	s.Observe(0)
	s.Observe(5)
	if got := s.q.value(0); math.Abs(got+5) > 0.06 {
		t.Errorf("min quantile %v, want ~-5", got)
	}
	if got := s.q.value(0.5); got != 0 {
		t.Errorf("median %v, want 0", got)
	}
	if got := s.q.value(1); math.Abs(got-5) > 0.06 {
		t.Errorf("max quantile %v, want ~5", got)
	}
	if len(s.q.neg) != 1 || s.q.zero != 1 || len(s.q.pos) != 1 {
		t.Errorf("buckets neg/zero/pos %d/%d/%d, want one each", len(s.q.neg), s.q.zero, len(s.q.pos))
	}
	if sv := s.Snapshot(); sv.Min != -5 || sv.Max != 5 || sv.Sum != 0 {
		t.Errorf("min/max/sum %v/%v/%v, want -5/5/0", sv.Min, sv.Max, sv.Sum)
	}

	defer func() {
		if recover() == nil {
			t.Errorf("empty-sketch quantile did not panic")
		}
	}()
	NewSummary().q.value(0.5)
}

// TestQuantileConstantFootprint pins the constant-memory claim: bucket
// count is bounded by the value range's decades, not the observation
// count.
func TestQuantileConstantFootprint(t *testing.T) {
	s := NewSummary()
	r := rng.New(7)
	for i := 0; i < 200000; i++ {
		s.Observe(float64(1 + r.Intn(100000)))
	}
	// log_gamma(1e5) ≈ ln(1e5)/ln(1.0202) ≈ 576 buckets max.
	if got := len(s.q.pos); got > 600 {
		t.Errorf("buckets %d for 2e5 observations over [1,1e5]; footprint not constant", got)
	}
}
