package sketch_test

import (
	"math"
	"sort"
	"testing"

	"tcast/internal/rng"
	"tcast/internal/sketch"
	"tcast/internal/stats"
)

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
			q := sketch.NewQuantile(alpha)
			for _, v := range sample {
				q.Observe(v)
			}
			sorted := append([]float64(nil), sample...)
			sort.Float64s(sorted)
			for _, p := range []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1} {
				got := q.Value(p)
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
			est := q.Value(0.5)
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
	q := sketch.NewQuantile(0)
	if got, want := q.String(), sketch.NewQuantile(sketch.DefaultAlpha).String(); got != want {
		t.Fatalf("alpha 0 sketch renders %q, want the default alpha's %q", got, want)
	}
	q.Observe(math.NaN())
	if q.Count() != 0 {
		t.Fatalf("NaN observed: count %d", q.Count())
	}
	q.ObserveN(3, 0)
	if q.Count() != 0 {
		t.Fatalf("zero-weight observed: count %d", q.Count())
	}
	q.Observe(-5)
	q.Observe(0)
	q.Observe(5)
	if got := q.Value(0); math.Abs(got+5) > 0.06 {
		t.Errorf("min quantile %v, want ~-5", got)
	}
	if got := q.Value(0.5); got != 0 {
		t.Errorf("median %v, want 0", got)
	}
	if got := q.Value(1); math.Abs(got-5) > 0.06 {
		t.Errorf("max quantile %v, want ~5", got)
	}
	if got := q.Buckets(); got != 3 {
		t.Errorf("buckets %d, want 3", got)
	}

	defer func() {
		if recover() == nil {
			t.Errorf("empty-sketch quantile did not panic")
		}
	}()
	sketch.NewQuantile(0).Value(0.5)
}

// TestQuantileConstantFootprint pins the tentpole claim: bucket count is
// bounded by the value range's decades, not the observation count.
func TestQuantileConstantFootprint(t *testing.T) {
	q := sketch.NewQuantile(0.01)
	r := rng.New(7)
	for i := 0; i < 200000; i++ {
		q.ObserveN(float64(1+r.Intn(100000)), 1)
	}
	// log_gamma(1e5) ≈ ln(1e5)/ln(1.0202) ≈ 576 buckets max.
	if got := q.Buckets(); got > 600 {
		t.Errorf("buckets %d for 2e5 observations over [1,1e5]; footprint not constant", got)
	}
}

// TestMomentsMatchRunning cross-checks the streaming moments against
// stats.Running, the repo's exact path.
func TestMomentsMatchRunning(t *testing.T) {
	sample := adversarialInputs(4000)["heavy"]
	var m sketch.Moments
	var run stats.Running
	for _, v := range sample {
		m.Observe(v)
		run.Observe(v)
	}
	relClose := func(got, want float64) bool {
		return math.Abs(got-want) <= 1e-9*math.Max(math.Abs(want), 1)
	}
	if m.N != uint64(run.N()) || m.Min != run.Min() || m.Max != run.Max() {
		t.Fatalf("n/min/max mismatch: %+v vs %v", m, &run)
	}
	if !relClose(m.Mean(), run.Mean()) || !relClose(m.Variance(), run.Variance()) {
		t.Errorf("mean/variance %v/%v vs stats.Running %v/%v", m.Mean(), m.Variance(), run.Mean(), run.Variance())
	}
}

func TestMomentsEmptyAndReset(t *testing.T) {
	var m sketch.Moments
	if m.Mean() != 0 || m.Variance() != 0 || m.Stddev() != 0 {
		t.Fatalf("empty moments not zeroed: %+v", m)
	}
}

func TestReservoirDeterministicTopK(t *testing.T) {
	offers := make([]sketch.Exemplar, 100)
	for i := range offers {
		offers[i] = sketch.Exemplar{Key: uint64(i), Weight: float64(1 + i%10), Value: float64(i), Label: "t"}
	}
	fill := func(order []int) string {
		r := sketch.NewReservoir(8)
		for _, i := range order {
			r.Offer(offers[i])
		}
		return r.String()
	}
	asc := make([]int, len(offers))
	desc := make([]int, len(offers))
	for i := range asc {
		asc[i] = i
		desc[i] = len(offers) - 1 - i
	}
	if a, d := fill(asc), fill(desc); a != d {
		t.Errorf("offer order changed reservoir contents\n asc: %q\ndesc: %q", a, d)
	}

	// Re-offering a key updates in place without growing.
	r := sketch.NewReservoir(4)
	r.Offer(sketch.Exemplar{Key: 1, Weight: 2, Value: 10})
	r.Offer(sketch.Exemplar{Key: 1, Weight: 2, Value: 20})
	if n := len(r.Exemplars()); n != 1 {
		t.Fatalf("duplicate key grew reservoir to %d", n)
	}
	if got := r.Exemplars()[0].Value; got != 20 {
		t.Errorf("re-offer kept stale value %v", got)
	}
}

func TestReservoirWeightBias(t *testing.T) {
	// With many light items and a few very heavy ones, the heavy keys
	// should dominate the retained set.
	r := sketch.NewReservoir(10)
	heavy := map[uint64]bool{}
	for i := uint64(0); i < 1000; i++ {
		w := 1.0
		if i%100 == 0 {
			w = 1e6
			heavy[i] = true
		}
		r.Offer(sketch.Exemplar{Key: i, Weight: w})
	}
	kept := 0
	for _, ex := range r.Exemplars() {
		if heavy[ex.Key] {
			kept++
		}
	}
	if kept < 9 {
		t.Errorf("only %d/10 heavy exemplars retained", kept)
	}
}

func TestHash64Avalanche(t *testing.T) {
	seen := map[uint64]bool{}
	for i := uint64(0); i < 4096; i++ {
		h := sketch.Hash64(i)
		if seen[h] {
			t.Fatalf("collision at %d", i)
		}
		seen[h] = true
	}
	if sketch.HashString("a") == sketch.HashString("b") {
		t.Fatalf("string hash collision")
	}
	if sketch.HashString("") == sketch.HashString("a") {
		t.Fatalf("empty string hash equals non-empty")
	}
}
