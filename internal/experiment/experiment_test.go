package experiment

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"tcast/internal/rng"
	"tcast/internal/stats"
)

func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	cost := func(x int, _ Options) pointCost {
		return func(_ int, r *rng.Source) (float64, error) { return float64(x) * r.Float64(), nil }
	}
	var first *stats.Series
	for _, workers := range []int{1, 2, 4, 16} {
		s, err := sweep("s", []int{1, 2, 5}, Options{Runs: 100, Workers: workers}, rng.New(7), cost)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = s
			continue
		}
		for p, pt := range s.Points {
			if pt != first.Points[p] {
				t.Fatalf("workers=%d changed point %d: %+v vs %+v", workers, p, pt, first.Points[p])
			}
		}
	}
}

func TestSweepPropagatesErrors(t *testing.T) {
	var calls atomic.Int64 // trials run on two workers at once
	cost := func(int, Options) pointCost {
		return func(_ int, r *rng.Source) (float64, error) {
			calls.Add(1)
			return 0, fmt.Errorf("boom")
		}
	}
	if _, err := sweep("s", []int{1, 2}, Options{Runs: 10, Workers: 2}, rng.New(1), cost); err == nil {
		t.Fatal("error swallowed")
	}
	if calls.Load() == 0 {
		t.Fatal("no trial ran")
	}
}

func TestRunTrialsRejectsZeroRuns(t *testing.T) {
	if _, err := RunTrials(0, 2, rng.New(1), nil); err == nil {
		t.Fatal("runs=0 accepted")
	}
}

func TestSweepCountsAllRuns(t *testing.T) {
	s, err := sweep("s", []int{1, 2, 3}, Options{Runs: 137, Workers: 8}, rng.New(1), func(int, Options) pointCost {
		return func(_ int, r *rng.Source) (float64, error) { return 1, nil }
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range s.Points {
		if p.N != 137 || p.Y != 1 {
			t.Fatalf("point %+v: want N=137 mean=1", p)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"abl-capture", "abl-variants", "ext-battery", "ext-count",
		"ext-energy", "ext-faults", "ext-kplus", "ext-multihop", "ext-scale",
		"ext-time",
		"fig1",
		"fig10", "fig11", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
		"fig8", "fig9", "tab-acc", "tab-err",
	}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", got, want)
		}
	}
	for _, e := range All() {
		if e.Title == "" || e.Run == nil {
			t.Fatalf("experiment %q incomplete", e.ID)
		}
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
	e, err := Get("fig1")
	if err != nil || e.ID != "fig1" {
		t.Fatalf("Get(fig1) = %+v, %v", e, err)
	}
}

func makeTable() *stats.Table {
	tab := &stats.Table{Title: "demo", XLabel: "x", YLabel: "y"}
	a := &stats.Series{Name: "alpha"}
	a.Append(stats.Point{X: 1, Y: 2})
	a.Append(stats.Point{X: 2, Y: 4.5})
	b := &stats.Series{Name: "beta"}
	b.Append(stats.Point{X: 2, Y: 8})
	tab.Add(a)
	tab.Add(b)
	return tab
}

func TestRender(t *testing.T) {
	out := Render(makeTable())
	for _, want := range []string{"demo", "alpha", "beta", "4.500", "8", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render output missing %q:\n%s", want, out)
		}
	}
	// Missing point (alpha has x=1, beta does not) renders as "-".
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, two data rows
		t.Fatalf("unexpected line count %d:\n%s", len(lines), out)
	}
}

func TestRenderCI(t *testing.T) {
	tab := &stats.Table{Title: "ci", XLabel: "x"}
	s := &stats.Series{Name: "a"}
	s.Append(stats.Point{X: 1, Y: 2, Err: 0.25, N: 10})
	tab.Add(s)
	out := RenderCI(tab)
	for _, want := range []string{"±95%", "0.250", "2"} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderCI missing %q:\n%s", want, out)
		}
	}
	// Missing points render as dashes in both columns.
	b := &stats.Series{Name: "b"}
	b.Append(stats.Point{X: 9, Y: 9})
	tab.Add(b)
	out = RenderCI(tab)
	if strings.Count(out, "-") < 4 {
		t.Errorf("missing-point dashes absent:\n%s", out)
	}
}

func TestCSV(t *testing.T) {
	out := CSV(makeTable())
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "x,alpha,beta" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != "1,2," {
		t.Fatalf("row 1 = %q", lines[1])
	}
	if lines[2] != "2,4.500,8" {
		t.Fatalf("row 2 = %q", lines[2])
	}
}

func TestCSVEscaping(t *testing.T) {
	tab := &stats.Table{XLabel: `x,"label"`}
	s := &stats.Series{Name: "a,b"}
	s.Append(stats.Point{X: 1, Y: 1})
	tab.Add(s)
	out := CSV(tab)
	if !strings.HasPrefix(out, `"x,""label""","a,b"`) {
		t.Fatalf("escaping wrong: %q", out)
	}
}

func TestFormatNum(t *testing.T) {
	cases := map[float64]string{
		3:      "3",
		3.5:    "3.500",
		0:      "0",
		-2:     "-2",
		1.2345: "1.234",
	}
	for v, want := range cases {
		if got := formatNum(v); got != want {
			t.Errorf("formatNum(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestXSweepShape(t *testing.T) {
	xs := xSweep(128, 16)
	if xs[0] != 0 || xs[len(xs)-1] != 128 {
		t.Fatalf("sweep endpoints wrong: %v", xs)
	}
	seen := map[int]bool{}
	last := -1
	for _, x := range xs {
		if x < 0 || x > 128 || seen[x] || x <= last {
			t.Fatalf("sweep not strictly increasing and unique: %v", xs)
		}
		seen[x] = true
		last = x
	}
	// The hard region must be densely covered.
	for _, must := range []int{15, 16, 17} {
		if !seen[must] {
			t.Fatalf("sweep missing x=%d: %v", must, xs)
		}
	}
}

// TestExperimentDeterminism: a full figure run is bit-identical for the
// same options — the property that makes EXPERIMENTS.md reproducible.
func TestExperimentDeterminism(t *testing.T) {
	e, err := Get("fig7")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Runs: 60, Seed: 5}
	a, err := e.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if Render(a) != Render(b) {
		t.Fatal("identical options produced different tables")
	}
	// A different worker count must not change anything either.
	opts.Workers = 1
	c, err := e.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if Render(a) != Render(c) {
		t.Fatal("worker count changed the table")
	}
}

func TestSweepProducesCIs(t *testing.T) {
	root := rng.New(3)
	s, err := sweep("s", []int{1, 2}, Options{Runs: 50, Workers: 4}, root, func(x int, _ Options) pointCost {
		return func(_ int, r *rng.Source) (float64, error) { return float64(x) + r.Float64(), nil }
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range s.Points {
		if p.N != 50 || p.Err <= 0 {
			t.Fatalf("point %+v lacks CI", p)
		}
		if math.Abs(p.Y-(p.X+0.5)) > 0.2 {
			t.Fatalf("point mean off: %+v", p)
		}
	}
}
