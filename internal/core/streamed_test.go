package core

import (
	"fmt"
	"testing"

	"tcast/internal/fastsim"
	"tcast/internal/idset"
	"tcast/internal/query"
	"tcast/internal/rng"
)

// materialized hides the channel's QueryStreamed, as every layer over the
// substrate does, so core polls it with decoded bins.
type materialized struct{ query.Querier }

// TestStreamedCapabilityMatchesMaterialized is the oracle for the
// streamed capability: every trial runs once on the bare channel, whose
// streamed rounds answer polls from the positives and settle the
// candidates once per round, and once behind materialized, which decodes
// and removes every bin as it is polled. The Result, the channel's
// transmission ledger and both RNG streams' positions must match.
func TestStreamedCapabilityMatchesMaterialized(t *testing.T) {
	lossy := fastsim.Config{Model: query.OnePlus, MissProb: 0.1, FalseActiveProb: 0.05}
	lossyTwoPlus := fastsim.TwoPlusConfig()
	lossyTwoPlus.MissProb = 0.2
	cfgs := []struct {
		name string
		cfg  fastsim.Config
	}{
		{"1+", onePlus()}, {"2+", twoPlus()}, {"no-capture", idealTwoPlus()},
		{"lossy-1+", lossy}, {"lossy-2+", lossyTwoPlus},
	}
	algs := []Algorithm{
		TwoTBins{}, ExpIncrease{}, ExpIncrease{Variant: ExpPauseAndContinue}, ABNS{},
	}
	sizes := []struct{ n, seeds int }{{idset.SparseCutover, 3}, {100_000, 1}, {1_000_000, 1}}
	if testing.Short() {
		sizes = sizes[:2]
	}
	var bareArena, matArena Arena // pooled across every trial, as trial loops pool them
	sessions := 0
	for _, sz := range sizes {
		for _, c := range cfgs {
			for ai, alg := range algs {
				for _, x := range []int{0, 3, 16, 40} {
					for seed := 0; seed < sz.seeds; seed++ {
						if sz.n >= 1_000_000 && (ai > 0 || x == 0) {
							continue // one algorithm at 10^6 keeps the test fast
						}
						const th = 16
						root := rng.New(uint64(sz.n*1000 + ai*100 + x*10 + seed))
						run := func(hide bool) (Result, error, fastsim.TxStats, [2]uint64) {
							chR, algR := root.Split(1), root.Split(2)
							ch, _ := fastsim.RandomPositives(sz.n, x, c.cfg, chR)
							var q query.Querier = ch
							arena := &bareArena
							if hide {
								q, arena = materialized{ch}, &matArena
							}
							res, err := RunIn(arena, alg, q, sz.n, th, algR)
							return res, err, ch.Stats(), [2]uint64{chR.Uint64(), algR.Uint64()}
						}
						label := fmt.Sprintf("n=%d %s %s x=%d seed=%d", sz.n, c.name, alg.Name(), x, seed)
						got, gotErr, gotTx, gotRNG := run(false)
						want, wantErr, wantTx, wantRNG := run(true)
						if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
							t.Fatalf("%s: error %v, materialized %v", label, gotErr, wantErr)
						}
						if got != want {
							t.Fatalf("%s: result %+v, materialized %+v", label, got, want)
						}
						if gotTx != wantTx {
							t.Fatalf("%s: stats %+v, materialized %+v", label, gotTx, wantTx)
						}
						if gotRNG != wantRNG {
							t.Fatalf("%s: RNG post-states %x, materialized %x", label, gotRNG, wantRNG)
						}
						sessions++
					}
				}
			}
		}
	}
	t.Logf("%d sessions matched", sessions)
}
