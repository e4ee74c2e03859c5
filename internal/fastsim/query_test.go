package fastsim

import (
	"slices"
	"testing"

	"tcast/internal/binning"
	"tcast/internal/idset"
	"tcast/internal/query"
	"tcast/internal/rng"
)

// referenceQuery is the lossless query written out from the model: walk
// the bin, collect the heard positives (Bernoulli(0) consumes no
// randomness under MissProb == 0), then resolve the response. Query must
// match it response for response AND draw for draw.
func referenceQuery(c *Channel, bin []int, r *rng.Source) query.Response {
	var heard []int
	for _, id := range bin {
		if c.IsPositive(id) {
			heard = append(heard, id)
		}
	}
	if len(heard) == 0 {
		if c.cfg.FalseActiveProb > 0 && r.Bernoulli(c.cfg.FalseActiveProb) {
			if c.cfg.Model == query.OnePlus {
				return query.Response{Kind: query.Active}
			}
			return query.Response{Kind: query.Collision}
		}
		return query.Response{Kind: query.Empty}
	}
	if c.cfg.Model == query.OnePlus {
		return query.Response{Kind: query.Active}
	}
	if r.Bernoulli(c.cfg.Capture(len(heard))) {
		return query.Response{Kind: query.Decoded, DecodedID: heard[r.Intn(len(heard))]}
	}
	return query.Response{Kind: query.Collision}
}

func TestQueryMatchesReference(t *testing.T) {
	const n = 130 // capacity straddles a word boundary
	configs := []Config{
		{Model: query.OnePlus},
		{Model: query.OnePlus, FalseActiveProb: 0.3},
		TwoPlusConfig(),
		{Model: query.TwoPlus, Capture: GeometricCapture(0.3), CaptureEffectPresent: true, FalseActiveProb: 0.2},
		{Model: query.TwoPlus, Capture: NoCapture()},
	}
	for ci, cfg := range configs {
		for seed := uint64(1); seed <= 20; seed++ {
			root := rng.New(seed)
			ch, _ := RandomPositives(n, int(seed%40), cfg, root.Split(1))
			refR := root.Split(1)
			refR.Sample(n, int(seed%40)) // advance past the positive draw
			binR := root.Split(5)
			for polls := 0; polls < 50; polls++ {
				// Bins of every size the algorithms produce, small and
				// word-scale, with duplicates impossible (Sample draws
				// distinct IDs, like real partitions).
				bin := binR.Sample(n, binR.Intn(n))
				want := referenceQuery(ch, bin, refR)
				got := ch.Query(bin)
				if got != want {
					t.Fatalf("config %d seed %d poll %d: Query %+v, reference %+v", ci, seed, polls, got, want)
				}
			}
			// Same stream position afterwards: no extra or missing draws.
			if ch.r.Uint64() != refR.Uint64() {
				t.Fatalf("config %d seed %d: Query left the RNG at a different position", ci, seed)
			}
		}
	}
}

func TestResetRandomMatchesRandomPositives(t *testing.T) {
	cfg := TwoPlusConfig()
	var pooled Channel
	for seed := uint64(1); seed <= 14; seed++ {
		// Seeds past 10 straddle the sparse cutover, where the sorted
		// store is sorted from the sample instead of read off the words.
		n := 64 + int(seed%3)*40
		if seed > 10 {
			n = idset.SparseCutover - 2 + int(seed%4)
		}
		x := int(seed % 20)
		fresh, set := RandomPositives(n, x, cfg, rng.New(seed))
		pooled.ResetRandom(n, x, cfg, rng.New(seed))
		if got := pooled.positives; got.Cap() != set.Cap() || !slices.Equal(got.Members(), set.Members()) {
			t.Fatalf("seed %d: pooled positives differ from fresh", seed)
		}
		if !slices.Equal(pooled.posIDs, set.Members()) {
			t.Fatalf("seed %d n=%d: sorted positives %v, want %v", seed, n, pooled.posIDs, set.Members())
		}
		if pooled.Stats() != (TxStats{}) {
			t.Fatalf("seed %d: stats not zeroed: %+v", seed, pooled.Stats())
		}
		binR := rng.New(seed + 100)
		for polls := 0; polls < 20; polls++ {
			bin := binR.Sample(n, binR.Intn(n))
			if got, want := pooled.Query(bin), fresh.Query(bin); got != want {
				t.Fatalf("seed %d poll %d: pooled %+v, fresh %+v", seed, polls, got, want)
			}
		}
		if pooled.Stats() != fresh.Stats() {
			t.Fatalf("seed %d: stats diverged: %+v vs %+v", seed, pooled.Stats(), fresh.Stats())
		}
	}
}

// TestQueryStreamedMatchesQuery: answering bin i of a streamed round
// from the positives must give what Query gives for the decoded bin —
// response, ledger and draws — on both sides of the positives-vs-bin
// size choice, lossless and lossy.
func TestQueryStreamedMatchesQuery(t *testing.T) {
	n := idset.SparseCutover + 77
	configs := []Config{
		DefaultConfig(),
		TwoPlusConfig(),
		{Model: query.TwoPlus, Capture: NoCapture()},
		{Model: query.OnePlus, MissProb: 0.3, FalseActiveProb: 0.2},
		{Model: query.TwoPlus, Capture: GeometricCapture(0.7), CaptureEffectPresent: true, MissProb: 0.2},
	}
	var st binning.Streamer
	var rk idset.Ranked
	var bin []int
	for ci, cfg := range configs {
		for _, x := range []int{0, 1, 5, 40, 600} {
			seed := uint64(ci*1000 + x)
			streamed, _ := RandomPositives(n, x, cfg, rng.New(seed))
			plain, _ := RandomPositives(n, x, cfg, rng.New(seed))
			// Candidates: a random half of the field, so some positives
			// are no longer candidates; then every bin count from one
			// bin per candidate-ish to a single bin.
			cands := idset.FullHybrid(n)
			pick := rng.New(seed + 1)
			for id := 0; id < n; id++ {
				if pick.Intn(2) != 0 {
					cands.Remove(id)
				}
			}
			rk.Snapshot(cands)
			for _, b := range []int{1, 7, 300, 4000} {
				st.StartPermuted(rk.Len(), b, pick.Uint64())
				for i := 0; i < b; i++ {
					bin = st.AppendBin(i, bin[:0])
					for j, rank := range bin {
						bin[j] = rk.Select(rank)
					}
					got, want := streamed.QueryStreamed(&st, &rk, i), plain.Query(bin)
					if got != want {
						t.Fatalf("config %d x=%d b=%d bin %d: streamed %+v, Query %+v", ci, x, b, i, got, want)
					}
				}
			}
			if streamed.Stats() != plain.Stats() || streamed.r.Uint64() != plain.r.Uint64() {
				t.Fatalf("config %d x=%d: ledger or RNG position diverged", ci, x)
			}
		}
	}
}
