package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tcast/internal/audit"
	"tcast/internal/metrics"
	"tcast/internal/rng"
	"tcast/internal/trace"
)

// TestMain lets the test binary serve as its own workload child and
// reference helper, the way the bench binary re-executes itself.
func TestMain(m *testing.M) {
	switch {
	case os.Getenv(refEnv) != "":
		os.Exit(refMain(os.Stdin, os.Stdout))
	case os.Getenv(childEnv) != "":
		os.Exit(childMain(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

// fullStack is every sweep layer at once, as the shims must see through
// all of them.
func fullStack(t *testing.T, rec *recorder) *stack {
	t.Helper()
	k := &stack{reg: metrics.New(), col: &audit.Collector{}, tb: trace.NewBuilder(), sample: 1, rec: rec}
	if err := k.addFaults(); err != nil {
		t.Fatal(err)
	}
	if err := k.addObs(); err != nil {
		t.Fatal(err)
	}
	return k
}

// TestShimTransparency runs the same trials through every layer with and
// without a shim above each one, at n=128 (classic rounds) and n=2^14
// (streamed rounds). Audit's ground-truth discovery, the retry layer's
// slot-meter walk, obs.ChainSlots and metrics.FinishSession must all see
// through the shims, leaving decisions, query counts, session slots,
// verdicts and the virtual-time trace unchanged.
func TestShimTransparency(t *testing.T) {
	// The fault injector steps every node on every poll, so the streamed
	// field runs fewer trials.
	for _, c := range []struct{ n, trials int }{{128, 40}, {1 << 14, 4}} {
		n, trials := c.n, c.trials
		const tt, x = 16, 16
		run := func(rec *recorder) ([]outcome, *stack) {
			k := fullStack(t, rec)
			st := new(trialState)
			root := rng.New(7)
			var r rng.Source
			var out []outcome
			for i := 0; i < trials; i++ {
				root.SplitInto(uint64(i), &r)
				o, err := k.trial(st, i, &r, n, tt, x)
				if err != nil {
					t.Fatalf("n=%d trial %d: %v", n, i, err)
				}
				out = append(out, o)
			}
			k.tb.Graft()
			k.col.Flush()
			return out, k
		}
		plain, kp := run(nil)
		rec := newRecorder(0)
		shimmed, ks := run(rec)
		retried := false
		for i := range plain {
			if plain[i] != shimmed[i] {
				t.Errorf("n=%d trial %d: %+v without shims, %+v with", n, i, plain[i], shimmed[i])
			}
			retried = retried || plain[i].slots > int64(plain[i].queries)
		}
		if !retried {
			t.Errorf("n=%d: no session slots beyond its polls; the retry meter was not found", n)
		}
		if got := ks.reg.Counter(metrics.MetricSessions).Value(); got != int64(trials) {
			t.Errorf("n=%d: FinishSession closed %d sessions through shims, want %d", n, got, trials)
		}
		sp, ss := kp.col.Stats(), ks.col.Stats()
		if sp.Sessions != trials || sp.Polls != ss.Polls || sp.Outcomes != ss.Outcomes || sp.Classes != ss.Classes {
			t.Errorf("n=%d: audit stats %+v without shims, %+v with", n, sp, ss)
		}
		a, _, err := encodeTrace(kp.tb.Trace())
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := encodeTrace(ks.tb.Trace())
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("n=%d: span trace changed under shims", n)
		}
		for _, layer := range []string{layerCore, layerFastsim, layerFaults, layerRetry, layerMetrics, layerAudit, layerTrace, layerObs} {
			if rec.self[layer] <= 0 {
				t.Errorf("n=%d: no self time recorded for %s", n, layer)
			}
		}
	}
}

// TestSpecGen checks the serve traffic: every spec is the repository's own
// (2tbins, n=128, t=16, model 1+) with x in [t-4, t+4], both verdicts and
// both audit settings occur, and the same seed draws the same specs.
func TestSpecGen(t *testing.T) {
	a, b := newSpecGen(3), newSpecGen(3)
	var above, below, audited int
	for i := 0; i < 1000; i++ {
		sp := a.next()
		if sp != b.next() {
			t.Fatalf("spec %d differs between two generators of one seed", i)
		}
		if sp.Alg != "2tbins" || sp.N != 128 || sp.T != 16 || sp.Model != "1+" || sp.X < 12 || sp.X > 20 || sp.Trial != i {
			t.Fatalf("spec %d = %+v", i, sp)
		}
		if sp.X >= sp.T {
			above++
		} else {
			below++
		}
		if sp.Audit {
			audited++
		}
	}
	if above == 0 || below == 0 || audited == 0 || audited == 1000 {
		t.Errorf("x >= t %d times, x < t %d times, audited %d of 1000", above, below, audited)
	}
}

func TestPercentiles(t *testing.T) {
	var l latencies
	for i := 1; i <= 1000; i++ {
		l = append(l, float64(i))
	}
	if got := l.percentile(0.5); got != 500 {
		t.Errorf("p50 = %v, want 500", got)
	}
	if got := l.percentile(0.99); got != 990 {
		t.Errorf("p99 = %v, want 990", got)
	}
	label, v, ok := l.tailPercentile()
	if !ok || label != "p99" || v != 990 {
		t.Errorf("tail = %s %v %v, want p99 990 (exactly 10 samples beyond it)", label, v, ok)
	}
	// Ten failures out of a thousand: p99 is still a sample, p99.1 is not.
	for i := 0; i < 10; i++ {
		l[i] = math.Inf(1)
	}
	if got := l.percentile(0.99); got != 1000 {
		t.Errorf("p99 with 1%% failed = %v, want 1000", got)
	}
	if got := l.percentile(0.991); !math.IsInf(got, 1) {
		t.Errorf("p99.1 with 1%% failed = %v, want +Inf", got)
	}
	if got := l.within(15); got != 5 {
		t.Errorf("within(15) = %d, want 5 (11..15; the failed ones miss every limit)", got)
	}
	if got := l.within(math.Inf(1)); got != 990 {
		t.Errorf("within(+Inf) = %d, want 990 (the failed ones miss even no limit)", got)
	}
	if _, _, ok := latencies(make([]float64, 99)).tailPercentile(); ok {
		t.Error("99 samples support no tail percentile with ten beyond it")
	}
	label, _, _ = latencies(make([]float64, 10000)).tailPercentile()
	if label != "p99.9" {
		t.Errorf("tail of 10000 samples = %s, want p99.9", label)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Layer: "core", Start: 0, End: 100},
		// Two overlapping children and one spilling past the parent: only
		// the union inside [0, 100) is covered, 10..50 and 90..100.
		{ID: 1, Parent: 0, Layer: "obs", Start: 10, End: 30},
		{ID: 2, Parent: 0, Layer: "obs", Start: 20, End: 50},
		{ID: 3, Parent: 0, Layer: "obs", Start: 90, End: 120},
		{ID: 4, Parent: 2, Layer: "fastsim", Start: 25, End: 45},
	}
	got := selfTimes(spans)
	want := map[string]int64{"core": 50, "obs": 20 + (30 - 20) + 30, "fastsim": 20}
	for layer, ns := range want {
		if got[layer] != ns {
			t.Errorf("self(%s) = %d, want %d", layer, got[layer], ns)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, m, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || m != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, m, q3)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 102, 103, 104}
	for _, tc := range []struct {
		better string
		b      []float64
		want   string
	}{
		{"lower", []float64{101, 102, 103, 104, 105}, "ok"},
		{"lower", []float64{120, 121, 122, 123, 124}, "regressed"},
		{"lower", []float64{80, 81, 82, 83, 84}, "improved"},
		{"higher", []float64{120, 121, 122, 123, 124}, "improved"},
		{"lower", []float64{60, 100, 140, 180, 220}, "unresolved"},
		{"lower", []float64{10, 40, 70, 80, 99}, "improved"},
	} {
		if got := verdict(tc.better, 0.10, base, tc.b); got != tc.want {
			t.Errorf("verdict(%s, %v) = %s, want %s", tc.better, tc.b, got, tc.want)
		}
	}
}

// runShort runs one workload through the parent in -short mode and returns
// the metrics it printed and the final JSON line's metrics.
func runShort(t *testing.T, workload string, traceRun int) (string, map[string]metric) {
	t.Helper()
	var out bytes.Buffer
	args := []string{"-short", "-seconds", "0.5", "-workload", workload, "-out", t.TempDir()}
	if traceRun == 1 {
		args = append(args, "-trace", "1")
	}
	if code := parentMain(args, &out); code != 0 {
		t.Fatalf("%s: exit %d\n%s", workload, code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Metrics   map[string]metric `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("%s: last line is not the result object: %v", workload, err)
	}
	if !last.Correct || last.Attempted < 1 {
		t.Fatalf("%s: incorrect run\n%s", workload, out.String())
	}
	return out.String(), last.Metrics
}

// checkPrinted asserts every listed metric was printed by name with its
// BENCHMARK.json unit and carried in the result object.
func checkPrinted(t *testing.T, workload, out string, got map[string]metric, specs []metricSpec) {
	t.Helper()
	for _, m := range specs {
		if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
			t.Errorf("%s: metric %s = %+v, want unit %s", workload, m.Name, g, m.Unit)
		}
		if !strings.Contains(out, " "+m.Name+" ") || !strings.Contains(out, " "+m.Unit+"\n") {
			t.Errorf("%s: %s (%s) not printed", workload, m.Name, m.Unit)
		}
	}
}

func benchmarkJSON(t *testing.T) benchmarkSpec {
	t.Helper()
	spec, err := readBenchmarkSpec(filepath.Join(".."))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestShortWorkloads runs every workload briefly and checks that each
// end-to-end metric BENCHMARK.json lists is printed with its unit.
func TestShortWorkloads(t *testing.T) {
	spec := benchmarkJSON(t)
	for _, w := range workloadNames {
		out, got := runShort(t, w, 0)
		checkPrinted(t, w, out, got, spec.EndToEnd)
	}
}

// TestShortTraced runs a traced run briefly and checks that each per-layer
// metric is printed with its unit. With -short every probe runs at its
// reduced size, so one workload's traced run stands for all six.
func TestShortTraced(t *testing.T) {
	spec := benchmarkJSON(t)
	out, got := runShort(t, "figs", 1)
	checkPrinted(t, "traced", out, got, spec.PerLayer)
}
