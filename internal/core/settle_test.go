package core

import (
	"fmt"
	"slices"
	"testing"

	"tcast/internal/binning"
	"tcast/internal/fastsim"
	"tcast/internal/idset"
	"tcast/internal/query"
	"tcast/internal/rng"
)

// removeIDsSettle is the settle streamed rounds used before they settled
// in rank space, kept as the oracle, and returns the settled members. It
// decodes the smaller side of the partition into ids and removes the
// dropped bins' members from c or, when the survivors are fewer and c is
// dense, rebuilds the set from the surviving bins less the round's
// decodes. c must already have lost decoded, as the ledger's per-poll
// folds leave it.
func removeIDsSettle(c *idset.Hybrid, sparse bool, st *binning.Streamer, rk *idset.Ranked, dropped *idset.Dense, droppedMembers int, decoded []int) []int {
	var ids []int
	appendBin := func(i int) {
		for _, rank := range st.AppendBin(i, nil) {
			ids = append(ids, rk.Select(rank))
		}
	}
	if 2*droppedMembers <= st.Members() || sparse {
		for i := 0; i < st.Bins(); i++ {
			if dropped.Contains(i) {
				appendBin(i)
			}
		}
		c.RemoveIDs(ids)
		return c.Members()
	}
	rebuilt := idset.NewDense(c.Cap())
	for i := 0; i < st.Bins(); i++ {
		if !dropped.Contains(i) {
			appendBin(i)
		}
	}
	for _, id := range ids {
		rebuilt.Add(id)
	}
	for _, id := range decoded {
		rebuilt.Remove(id)
	}
	return rebuilt.Members()
}

// settleOracle wraps a bare channel, keeping its streamed capability,
// and checks every settled round of the session in arena a against
// removeIDsSettle. Core calls TraceRound at the top of each round, after
// the previous round settled and before the next snapshot, so the
// previous round's partition, snapshot and dropped bins are still in
// the arena.
type settleOracle struct {
	*fastsim.Channel
	t     *testing.T
	a     *Arena
	label string

	before  []int // the candidates at round start
	sparse  bool  // their form once the round compacted them
	decoded []int // the round's confirmed decodes
	bins    []int // the bin of each decode
	polled  bool
	want    idset.Hybrid

	// rounds counts the settled rounds checked by form (dense, sparse)
	// and smaller side (dropped, survivors); decodes counts confirmed
	// decodes in surviving and in dropped bins.
	rounds  [2][2]int
	decodes [2]int
}

func (o *settleOracle) TraceRound(round int) {
	if round > 1 && o.polled {
		o.check(round - 1)
	}
	o.polled = false
	o.decoded, o.bins = o.decoded[:0], o.bins[:0]
	o.before = o.a.k.Candidates.AppendMembers(o.before[:0])
}

func (o *settleOracle) QueryStreamed(st *binning.Streamer, rk *idset.Ranked, i int) query.Response {
	if !o.polled {
		// The round compacted the candidates before its first poll, so
		// Compact now changes nothing and reports the form.
		o.sparse = o.a.k.Candidates.Compact()
	}
	resp := o.Channel.QueryStreamed(st, rk, i)
	o.polled = true
	if resp.Kind == query.Decoded && o.a.k.Candidates.Contains(resp.DecodedID) {
		o.decoded = append(o.decoded, resp.DecodedID)
		o.bins = append(o.bins, i)
	}
	return resp
}

func (o *settleOracle) check(round int) {
	o.t.Helper()
	s, got := &o.a.sess, o.a.k.Candidates
	// Rebuild the round-start candidates: fill, then remove every id
	// before does not list.
	want := &o.want
	want.Reset(got.Cap())
	want.Fill()
	next := 0
	for id := 0; id < got.Cap(); id++ {
		if next < len(o.before) && o.before[next] == id {
			next++
		} else {
			want.Remove(id)
		}
	}
	if want.Compact() != o.sparse {
		o.t.Fatalf("%s round %d: the oracle's copy compacts differently", o.label, round)
	}
	for _, id := range o.decoded {
		want.Remove(id)
	}
	members := removeIDsSettle(want, o.sparse, &s.stream, &s.ranked, &s.dropped, s.droppedMembers, o.decoded)
	if got.Len() != len(members) || !slices.Equal(got.Members(), members) {
		o.t.Fatalf("%s round %d: settled %d candidates (%d listed), oracle %d", o.label, round,
			got.Len(), len(got.Members()), len(members))
	}
	form, side := 0, 0
	if o.sparse {
		form = 1
	}
	if 2*s.droppedMembers > s.stream.Members() {
		side = 1
	}
	o.rounds[form][side]++
	for _, bin := range o.bins {
		if s.dropped.Contains(bin) {
			o.decodes[1]++
		} else {
			o.decodes[0]++
		}
	}
}

// TestSettleMatchesRemoveIDsOracle checks the rank-space settle against
// the decode-and-RemoveIDs settle after every settled round, across
// field sizes, dense and compacted candidates, either smaller side, and
// channels whose decodes land in dropped bins (no capture, or a bin of
// one) and in surviving ones (capture with loss).
func TestSettleMatchesRemoveIDsOracle(t *testing.T) {
	noCaptureLossy := idealTwoPlus()
	noCaptureLossy.MissProb = 0.2
	lossyTwoPlus := fastsim.TwoPlusConfig()
	lossyTwoPlus.MissProb = 0.2
	cfgs := []struct {
		name string
		cfg  fastsim.Config
	}{
		{"1+", onePlus()}, {"no-capture", idealTwoPlus()},
		{"lossy-no-capture", noCaptureLossy}, {"lossy-2+", lossyTwoPlus},
	}
	algs := []Algorithm{TwoTBins{}, ExpIncrease{}, ABNS{}}
	sizes := []struct{ n, seeds int }{{idset.SparseCutover, 3}, {100_000, 2}, {1_000_000, 1}}
	if testing.Short() {
		sizes = sizes[:2]
	}
	var arena Arena
	for _, sz := range sizes {
		o := &settleOracle{t: t, a: &arena}
		for _, c := range cfgs {
			for ai, alg := range algs {
				for _, x := range []int{1, 3, 16, 40, 200} {
					for seed := 0; seed < sz.seeds; seed++ {
						root := rng.New(uint64(sz.n*1000 + ai*100 + x*10 + seed))
						ch, _ := fastsim.RandomPositives(sz.n, x, c.cfg, root.Split(1))
						o.Channel = ch
						o.label = fmt.Sprintf("n=%d %s %s x=%d seed=%d", sz.n, c.name, alg.Name(), x, seed)
						if _, err := RunIn(&arena, alg, o, sz.n, 16, root.Split(2)); err != nil {
							t.Fatalf("%s: %v", o.label, err)
						}
					}
				}
			}
		}
		t.Logf("n=%d: settled rounds dense %v, sparse %v ([dropped smaller, survivors smaller]); decodes in surviving/dropped bins %v",
			sz.n, o.rounds[0], o.rounds[1], o.decodes)
		for form, name := range []string{"dense", "sparse"} {
			for side, smaller := range []string{"dropped", "survivors"} {
				if o.rounds[form][side] == 0 {
					t.Errorf("n=%d: no %s round with the %s side smaller", sz.n, name, smaller)
				}
			}
		}
		if o.decodes[0] == 0 || o.decodes[1] == 0 {
			t.Errorf("n=%d: decodes in surviving/dropped bins %v, want both", sz.n, o.decodes)
		}
	}
}
