package metrics

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestNameLabels(t *testing.T) {
	if got := Name("polls_total"); got != "polls_total" {
		t.Fatalf("Name = %q", got)
	}
	if got := Name("polls_total", "kind", "empty"); got != `polls_total{kind="empty"}` {
		t.Fatalf("Name = %q", got)
	}
	if got := Name("a", "k1", "v1", "k2", "v2"); got != `a{k1="v1",k2="v2"}` {
		t.Fatalf("Name = %q", got)
	}
}

// TestNameMatchesFmtQuote pins Name's label quoting to the bytes of the
// fmt %q form it replaced, for values that need escaping.
func TestNameMatchesFmtQuote(t *testing.T) {
	values := []string{"", "plain", `say "hi"`, `back\slash`, "tab\tnew\nline",
		"naïve", "日本", "\x00ctl\x7f", "\xff\xfeinvalid", "emoji 🛰"}
	for _, v := range values {
		want := fmt.Sprintf("m{k=%q,q=%q}", v, v+v)
		if got := Name("m", "k", v, "q", v+v); got != want {
			t.Errorf("Name(%q) = %s, fmt form %s", v, got, want)
		}
	}
}

func TestNamePanicsOnOddLabels(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("odd label count accepted")
		}
	}()
	Name("a", "key-without-value")
}

func TestRegistryReturnsSameHandle(t *testing.T) {
	r := New()
	if r.Counter("c") != r.Counter("c") {
		t.Fatal("counter handle not stable")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatal("gauge handle not stable")
	}
	if r.Histogram("h", []float64{1, 2}) != r.Histogram("h", []float64{1, 2}) {
		t.Fatal("histogram handle not stable")
	}
	if r.Counter("c", "k", "a") == r.Counter("c", "k", "b") {
		t.Fatal("different labels shared a handle")
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{1, 4, 16})
	for _, v := range []float64{0.5, 1, 2, 4, 10, 100} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d", h.Count())
	}
	if math.Abs(h.Sum()-117.5) > 1e-9 {
		t.Fatalf("sum = %v", h.Sum())
	}
	// Raw (non-cumulative) per-bucket counts: <=1: 2, (1,4]: 2, (4,16]: 1, +Inf: 1.
	want := []uint64{2, 2, 1, 1}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Fatalf("bucket %d = %d, want %d", i, got, w)
		}
	}
}

// TestConcurrentUpdatesExact hammers one counter, gauge and histogram from
// many goroutines and requires totals to be exact — the lock-free hot path
// must not lose updates (run under -race in CI).
func TestConcurrentUpdatesExact(t *testing.T) {
	const goroutines = 16
	const perG = 5000
	r := New()
	c := r.Counter("c")
	h := r.Histogram("h", ExponentialBuckets(1, 2, 8))
	g := r.Gauge("g")
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
				h.Observe(1) // constant value: float sum must be exact
				g.Set(float64(w))
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != goroutines*perG {
		t.Fatalf("counter = %d, want %d", c.Value(), goroutines*perG)
	}
	if h.Count() != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", h.Count(), goroutines*perG)
	}
	if h.Sum() != goroutines*perG {
		t.Fatalf("histogram sum = %v, want %d", h.Sum(), goroutines*perG)
	}
	if g.Value() < 0 || g.Value() >= goroutines {
		t.Fatalf("gauge = %v outside any written value", g.Value())
	}
}

// TestConcurrentRegistryLookups races handle creation with snapshots.
func TestConcurrentRegistryLookups(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			names := []string{"a", "b", "c", "d"}
			for i := 0; i < 1000; i++ {
				r.Counter(names[i%len(names)]).Inc()
				r.Histogram("h", []float64{1, 2, 4}, "w", names[w%len(names)]).Observe(float64(i))
			}
		}(w)
	}
	for i := 0; i < 20; i++ {
		_ = r.Snapshot()
	}
	wg.Wait()
	total := int64(0)
	for _, c := range r.Snapshot().Counters {
		total += int64(c.Value)
	}
	if total != 8*1000 {
		t.Fatalf("counter total = %d, want %d", total, 8*1000)
	}
}

func TestSnapshotSortedAndCumulative(t *testing.T) {
	r := New()
	r.Counter("z").Inc()
	r.Counter("a").Add(2)
	h := r.Histogram("h", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(99)
	s := r.Snapshot()
	if s.Counters[0].Name != "a" || s.Counters[1].Name != "z" {
		t.Fatalf("counters not sorted: %+v", s.Counters)
	}
	b := s.Histograms[0].Buckets
	if len(b) != 3 || b[0].Count != 1 || b[1].Count != 2 || b[2].Count != 3 {
		t.Fatalf("cumulative buckets wrong: %+v", b)
	}
	if !math.IsInf(b[2].UpperBound, 1) {
		t.Fatalf("last bucket bound = %v, want +Inf", b[2].UpperBound)
	}
}

func TestWriteTextAndPrometheus(t *testing.T) {
	r := New()
	r.Counter("polls_total", "kind", "empty").Add(3)
	r.Gauge("speed").Set(1.5)
	r.Histogram("lat", []float64{1}).Observe(0.5)

	var text strings.Builder
	if err := WriteText(&text, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`polls_total{kind="empty"} 3`, "speed 1.5", "lat count=1", "le=1 1", "le=+Inf 1"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text dump missing %q:\n%s", want, text.String())
		}
	}

	var prom strings.Builder
	if err := WritePrometheus(&prom, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE polls_total counter",
		`polls_total{kind="empty"} 3`,
		"# TYPE speed gauge",
		"# TYPE lat histogram",
		`lat_bucket{le="1"} 1`,
		`lat_bucket{le="+Inf"} 1`,
		"lat_sum 0.5",
		"lat_count 1",
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("prometheus dump missing %q:\n%s", want, prom.String())
		}
	}
}

// TestPrometheusTypeLineOncePerMetric: the exposition format allows at
// most one TYPE line per metric name, so labeled series sharing a base
// must be grouped under a single header.
func TestPrometheusTypeLineOncePerMetric(t *testing.T) {
	r := New()
	r.Counter("polls_total", "kind", "empty").Inc()
	r.Counter("polls_total", "kind", "active").Inc()
	r.Histogram("lat", []float64{1}, "w", "a").Observe(0.5)
	r.Histogram("lat", []float64{1}, "w", "b").Observe(2)
	var prom strings.Builder
	if err := WritePrometheus(&prom, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	for _, header := range []string{"# TYPE polls_total counter", "# TYPE lat histogram"} {
		if got := strings.Count(prom.String(), header); got != 1 {
			t.Errorf("%d copies of %q, want 1:\n%s", got, header, prom.String())
		}
	}
}

func TestSuffixedAndWithLabel(t *testing.T) {
	if got := suffixed(`h{k="v"}`, "_sum"); got != `h_sum{k="v"}` {
		t.Fatalf("suffixed = %q", got)
	}
	if got := withLabel(`h{k="v"}`, "_bucket", "le", "2"); got != `h_bucket{k="v",le="2"}` {
		t.Fatalf("withLabel = %q", got)
	}
	if got := withLabel("h", "_bucket", "le", "+Inf"); got != `h_bucket{le="+Inf"}` {
		t.Fatalf("withLabel = %q", got)
	}
}

// TestExpositionEscapesLabelValues: label values fold into names via %q,
// so quotes, backslashes and newlines must reach the exposition escaped —
// a raw newline inside a label would split one sample across two lines and
// corrupt the whole scrape.
func TestExpositionEscapesLabelValues(t *testing.T) {
	r := New()
	r.Counter("sessions_total", "session", "quote\"back\\slash\nnewline").Inc()

	want := `sessions_total{session="quote\"back\\slash\nnewline"} 1`
	var text strings.Builder
	if err := WriteText(&text, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), want) {
		t.Errorf("text dump missing escaped label:\n%s", text.String())
	}

	var prom strings.Builder
	if err := WritePrometheus(&prom, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), want) {
		t.Errorf("prometheus dump missing escaped label:\n%s", prom.String())
	}
	// One TYPE line plus one sample line: the hostile label value must not
	// have added physical lines.
	if got := strings.Count(prom.String(), "\n"); got != 2 {
		t.Errorf("prometheus dump has %d lines, want 2:\n%q", got, prom.String())
	}
}

func TestExponentialBuckets(t *testing.T) {
	got := ExponentialBuckets(1, 2, 5)
	want := []float64{1, 2, 4, 8, 16}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("buckets = %v", got)
		}
	}
}
