package experiment

import (
	"testing"
)

func TestScaleSweepTrialsClamp(t *testing.T) {
	cases := []struct{ runs, n, want int }{
		{1000, 100, 1000},     // capped at runs
		{1000, 1_000, 200},    // budget / n
		{1000, 10_000_000, 1}, // floor of one trial
		{3, 100, 3},
		{3, 1_000_000, 1},
	}
	for _, c := range cases {
		if got := scaleSweepTrials(c.runs, c.n); got != c.want {
			t.Errorf("scaleSweepTrials(%d, %d) = %d, want %d", c.runs, c.n, got, c.want)
		}
	}
}

// TestExtScaleSweep runs the full decade sweep once (small trial budget)
// and checks its structural properties: every decade present in every
// series, all decisions right (Run errors otherwise), and the queries
// series — the only machine-independent one — reproducible.
func TestExtScaleSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("10^7-node sweep")
	}
	e, err := Get("ext-scale")
	if err != nil {
		t.Fatal(err)
	}
	tab, err := e.Run(Options{Runs: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Series) != 3 {
		t.Fatalf("series = %d, want 3", len(tab.Series))
	}
	for _, s := range tab.Series {
		if len(s.Points) != len(scaleSweepNs) {
			t.Fatalf("series %s has %d points, want %d", s.Name, len(s.Points), len(scaleSweepNs))
		}
		for i, p := range s.Points {
			if p.X != float64(scaleSweepNs[i]) {
				t.Fatalf("series %s point %d at X=%v", s.Name, i, p.X)
			}
		}
	}
	queries := tab.Series[2]
	if queries.Name != "queries" {
		t.Fatalf("third series is %q", queries.Name)
	}
	for _, p := range queries.Points {
		if p.Y < 1 {
			t.Fatalf("queries series has impossible point %+v", p)
		}
	}
	tab2, err := e.Run(Options{Runs: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range tab2.Series[2].Points {
		if p.Y != queries.Points[i].Y {
			t.Fatalf("queries series not reproducible at N=%v: %v vs %v",
				p.X, p.Y, queries.Points[i].Y)
		}
	}
}
