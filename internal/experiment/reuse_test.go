package experiment

import (
	"testing"

	"tcast/internal/core"
	"tcast/internal/rng"
)

// nonScaleIDs lists every table but ext-scale, whose µs and KB series are
// machine-dependent.
func nonScaleIDs() []string {
	var ids []string
	for _, id := range IDs() {
		if id != "ext-scale" {
			ids = append(ids, id)
		}
	}
	return ids
}

// TestTrialScratchReuseIdentity: pooled trial scratch carries nothing
// from one trial, table or worker count into the next. Every table at
// Runs 20 renders the same bytes at Workers 1, 2 and 7, when it runs a
// second and third time in one process (so every pool is warm with other
// tables' scratch), and right after a different table has run.
func TestTrialScratchReuseIdentity(t *testing.T) {
	render := func(id string, workers int) string {
		t.Helper()
		e, err := Get(id)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := e.Run(Options{Runs: 20, Seed: 2011, Workers: workers})
		if err != nil {
			t.Fatalf("%s at workers=%d: %v", id, workers, err)
		}
		return Render(tab)
	}
	ids := nonScaleIDs()
	if len(ids) != 22 {
		t.Fatalf("%d non-scale tables, want 22: %v", len(ids), ids)
	}
	first := make(map[string]string, len(ids))
	for _, id := range ids {
		first[id] = render(id, 1)
	}
	for i, id := range ids {
		for _, workers := range []int{1, 2, 7} {
			if got := render(id, workers); got != first[id] {
				t.Fatalf("%s: workers=%d in a warm process renders\n%s\nwant\n%s", id, workers, got, first[id])
			}
		}
		other := ids[(i+len(ids)/2)%len(ids)]
		render(other, 2)
		if got := render(id, 2); got != first[id] {
			t.Fatalf("%s after %s renders\n%s\nwant\n%s", id, other, got, first[id])
		}
	}
}

// TestPooledTrialAllocs pins one warm trial of each pooled trial path at
// zero allocations: the tcast session on the extension tables' channel,
// the Sequential and CSMA baselines, the k+ session, the fig9 detector
// and the ext-count estimator.
func TestPooledTrialAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	nine := func(_, _ float64) int { return 9 }
	for _, tc := range []struct {
		name string
		cost pointCost
	}{
		{"tcast-on-channel", pooled(repliesCost(core.TwoTBins{}))(24, Options{})},
		{"Sequential", sequentialCost(defaultN, defaultT, 24, Options{})},
		{"CSMA", csmaCost(defaultN, defaultT, 24, Options{})},
		{"kplus", kplusCost(4, 24, Options{})},
		{"fig9 detector", detectorAccuracyCost(128, 16, nine)},
		{"ext-count Estimate", pooled(estimateCost)(24, Options{})},
	} {
		root := rng.New(2011)
		var src rng.Source
		trial := 0
		run := func() {
			root.SplitInto(uint64(trial), &src)
			if _, err := tc.cost(trial, &src); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			trial++
		}
		for i := 0; i < 50; i++ {
			run()
		}
		if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
			t.Errorf("%s: %v allocs per warm trial, want 0", tc.name, allocs)
		}
	}
}
