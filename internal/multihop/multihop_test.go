package multihop

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"tcast/internal/core"
	"tcast/internal/pollcast"
	"tcast/internal/query"
	"tcast/internal/radio"
	"tcast/internal/rng"
)

func mustField(t *testing.T, w, h, nodes int, load float64) *Field {
	t.Helper()
	f, err := NewField(w, h, nodes, load)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewFieldValidation(t *testing.T) {
	for _, tc := range []struct {
		w, h, nodes int
		load        float64
	}{
		{0, 3, 8, 0.1}, {3, 0, 8, 0.1}, {3, 3, 0, 0.1}, {3, 3, 8, -0.1}, {3, 3, 8, 1.1},
	} {
		if _, err := NewField(tc.w, tc.h, tc.nodes, tc.load); err == nil {
			t.Errorf("NewField(%+v) accepted", tc)
		}
	}
}

func TestNeighbors(t *testing.T) {
	f := mustField(t, 3, 3, 8, 0.1)
	cases := map[int][]int{
		0: {1, 3},       // corner
		4: {1, 3, 5, 7}, // center
		1: {0, 2, 4},    // top edge
		8: {5, 7},       // corner
	}
	for region, want := range cases {
		got := f.AppendNeighbors(nil, region)
		if len(got) != len(want) {
			t.Fatalf("Neighbors(%d) = %v, want %v", region, got, want)
		}
		seen := map[int]bool{}
		for _, v := range got {
			seen[v] = true
		}
		for _, w := range want {
			if !seen[w] {
				t.Fatalf("Neighbors(%d) = %v, want %v", region, got, want)
			}
		}
	}
}

func TestInterferenceAt(t *testing.T) {
	f := mustField(t, 3, 3, 8, 0.5)
	// Center region: 4 neighbors at load 0.5, coupling 0.4 →
	// 1 - (1-0.2)^4 = 0.5904.
	if got := f.InterferenceAt(4, 0.4); math.Abs(got-0.5904) > 1e-9 {
		t.Fatalf("center interference = %v, want 0.5904", got)
	}
	// Corner: 2 neighbors → 1 - 0.8^2 = 0.36.
	if got := f.InterferenceAt(0, 0.4); math.Abs(got-0.36) > 1e-9 {
		t.Fatalf("corner interference = %v, want 0.36", got)
	}
	// Zero coupling isolates regions.
	if got := f.InterferenceAt(4, 0); got != 0 {
		t.Fatalf("coupling=0 interference = %v", got)
	}
}

func uniformPositives(f *Field, x int) []int {
	out := make([]int, f.Regions())
	for i := range out {
		out[i] = x
	}
	return out
}

func TestCampaignCleanFieldCorrect(t *testing.T) {
	f := mustField(t, 3, 3, 24, 0)
	for _, prim := range []pollcast.Primitive{pollcast.Pollcast, pollcast.Backcast} {
		for _, x := range []int{0, 5, 6, 24} {
			c := Campaign{Field: f, Primitive: prim, Threshold: 6, Positives: uniformPositives(f, x)}
			results, sum, err := c.Run(uint64(x))
			if err != nil {
				t.Fatal(err)
			}
			if sum.FalsePositives != 0 || sum.FalseNegatives != 0 {
				t.Fatalf("%v x=%d: errors on a quiet field: %+v", prim, x, sum)
			}
			for _, r := range results {
				if r.Decision != (x >= 6) {
					t.Fatalf("region %d wrong", r.Region)
				}
			}
		}
	}
}

func TestCampaignPollcastFalsePositives(t *testing.T) {
	// Heavy neighbor traffic: CCA-based pollcast must produce
	// false-positive threshold decisions; backcast must not.
	f := mustField(t, 4, 4, 24, 0.9)
	positives := uniformPositives(f, 2) // truth: below t=6 everywhere
	pc := Campaign{Field: f, Primitive: pollcast.Pollcast, Coupling: 0.6, Threshold: 6, Positives: positives}
	_, pcSum, err := pc.Run(7)
	if err != nil {
		t.Fatal(err)
	}
	if pcSum.FalsePositives == 0 {
		t.Fatal("pollcast produced no false positives under heavy interference")
	}
	bc := Campaign{Field: f, Primitive: pollcast.Backcast, Coupling: 0.6, Threshold: 6, Positives: positives}
	_, bcSum, err := bc.Run(7)
	if err != nil {
		t.Fatal(err)
	}
	if bcSum.FalsePositives != 0 {
		t.Fatalf("backcast produced %d false positives", bcSum.FalsePositives)
	}
}

func TestCampaignBackcastFalseNegativesUnderJam(t *testing.T) {
	// Jamming interference hides HACKs: backcast's residual error mode.
	f := mustField(t, 4, 4, 24, 0.9)
	positives := uniformPositives(f, 8) // truth: above t=6 everywhere
	bc := Campaign{Field: f, Primitive: pollcast.Backcast, Coupling: 0.9, Jam: true, Threshold: 6, Positives: positives}
	_, sum, err := bc.Run(8)
	if err != nil {
		t.Fatal(err)
	}
	if sum.FalseNegatives == 0 {
		t.Fatal("jamming interference produced no backcast false negatives")
	}
	if sum.FalsePositives != 0 {
		t.Fatal("backcast produced false positives")
	}
}

func TestCampaignDeterministic(t *testing.T) {
	f := mustField(t, 3, 3, 16, 0.5)
	c := Campaign{Field: f, Primitive: pollcast.Backcast, Coupling: 0.3, Threshold: 4, Positives: uniformPositives(f, 4)}
	a, sumA, err := c.Run(42)
	if err != nil {
		t.Fatal(err)
	}
	b, sumB, err := c.Run(42)
	if err != nil {
		t.Fatal(err)
	}
	if sumA != sumB {
		t.Fatalf("summaries diverged: %+v vs %+v", sumA, sumB)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("region %d diverged", i)
		}
	}
}

// freshRegion is the reference region session: every piece built anew,
// as before region state was pooled.
func freshRegion(c Campaign, i int, seed uint64) RegionResult {
	f := c.Field
	n, x := f.NodesPerRegion, c.Positives[i]
	r := rng.New(seed).Split(uint64(i))
	parts := make([]*pollcast.Participant, n)
	for id := range parts {
		parts[id] = &pollcast.Participant{ID: id}
	}
	for _, id := range r.Split(1).Sample(n, x) {
		parts[id].Positive = true
	}
	med := radio.NewMedium(radio.Config{
		InterferenceProb: f.InterferenceAt(i, c.Coupling),
		InterferenceJams: c.Jam,
	}, r.Split(2))
	sess, err := pollcast.NewSession(med, initiatorID, parts, c.Primitive, query.OnePlus)
	if err != nil {
		panic(err)
	}
	res, err := (core.TwoTBins{}).Run(sess, n, c.Threshold, r.Split(3))
	if err != nil {
		panic(err)
	}
	return RegionResult{Region: i, Truth: x >= c.Threshold, Decision: res.Decision, Queries: res.Queries}
}

// Pooled region state must not carry anything from one region or
// campaign to the next: campaigns that alternate primitive, jamming,
// region size and positive counts, run from several goroutines at once,
// must each match the fresh reference region by region.
func TestCampaignPooledStateMatchesFresh(t *testing.T) {
	var campaigns []Campaign
	for k, nodes := range []int{24, 9, 24, 16} {
		f := mustField(t, 3, 2, nodes, 0.8)
		positives := make([]int, f.Regions())
		for i := range positives {
			positives[i] = (i*5 + k) % (nodes + 1)
		}
		for _, prim := range []pollcast.Primitive{pollcast.Pollcast, pollcast.Backcast} {
			for _, jam := range []bool{false, true} {
				campaigns = append(campaigns, Campaign{Field: f, Primitive: prim, Coupling: 0.4,
					Jam: jam, Threshold: 4, Positives: positives})
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k, c := range campaigns {
				seed := uint64(g*100 + k)
				results, _, err := c.Run(seed)
				if err != nil {
					t.Error(err)
					return
				}
				for i, got := range results {
					if want := freshRegion(c, i, seed); got != want {
						t.Errorf("campaign %d seed %d region %d: %+v, want %+v", k, seed, i, got, want)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestCampaignValidation(t *testing.T) {
	f := mustField(t, 2, 2, 8, 0)
	c := Campaign{Field: f, Threshold: 2, Positives: []int{1}}
	if _, _, err := c.Run(1); err == nil {
		t.Fatal("wrong positives length accepted")
	}
	c = Campaign{Field: f, Threshold: 2, Positives: []int{1, 2, 3, 99}}
	if _, _, err := c.Run(1); err == nil {
		t.Fatal("x > nodes accepted")
	}
}

func TestQuickNeighborsSymmetric(t *testing.T) {
	// i is j's neighbor iff j is i's neighbor, and nobody neighbors
	// themselves.
	f := func(wRaw, hRaw, iRaw uint8) bool {
		w := int(wRaw%6) + 1
		h := int(hRaw%6) + 1
		field, err := NewField(w, h, 4, 0)
		if err != nil {
			return false
		}
		i := int(iRaw) % field.Regions()
		for _, j := range field.AppendNeighbors(nil, i) {
			if j == i {
				return false
			}
			back := false
			for _, k := range field.AppendNeighbors(nil, j) {
				if k == i {
					back = true
				}
			}
			if !back {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
