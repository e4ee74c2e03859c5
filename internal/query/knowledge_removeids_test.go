package query

import (
	"testing"

	"tcast/internal/idset"
	"tcast/internal/rng"
)

// perIDApply is Apply's elimination as a per-id Remove loop: the
// reference the batched RemoveIDs path must match exactly.
func perIDApply(cands *idset.Hybrid, confirmed *int, bin []int, r Response, traits Traits) {
	switch r.Kind {
	case Empty:
		for _, id := range bin {
			cands.Remove(id)
		}
	case Decoded:
		if !cands.Contains(r.DecodedID) {
			return
		}
		*confirmed++
		cands.Remove(r.DecodedID)
		if r.MaxPositives(bin, traits) == 1 {
			for _, id := range bin {
				if id != r.DecodedID {
					cands.Remove(id)
				}
			}
		}
	}
}

// TestRemoveIDsApplyMatchesPerIDLoop drives Apply over a cutover-sized
// field through Empty and Decoded bins, with and without capture and
// across the dense-to-sparse compaction, and checks the ledger against a
// per-id Remove loop after every response.
func TestRemoveIDsApplyMatchesPerIDLoop(t *testing.T) {
	const n = idset.SparseCutover + 5
	r := rng.New(23)
	k := NewKnowledge(n, n)
	ref := idset.FullHybrid(n)
	confirmed := 0
	sparse := false // the form the last round boundary left
	for step := 0; k.Candidates.Len() > 0; step++ {
		if step%7 == 0 {
			// Round boundary: the streamed path compacts here.
			k.StartRound()
			if sparse = k.Candidates.Compact(); sparse != ref.Compact() {
				t.Fatalf("step %d: ledgers compacted differently", step)
			}
		}
		size := 1 + r.Intn(600)
		if sparse {
			size = 1 + r.Intn(30)
		}
		bin := make([]int, size)
		for i := range bin {
			bin[i] = r.Intn(n) // candidates and eliminated ids alike
		}
		resp := Response{Kind: Empty}
		traits := Traits{CaptureEffect: r.Bernoulli(0.3)}
		if r.Bernoulli(0.5) {
			resp = Response{Kind: Decoded, DecodedID: bin[r.Intn(len(bin))]}
		}
		k.Apply(bin, resp, traits)
		perIDApply(ref, &confirmed, bin, resp, traits)
		if !k.Candidates.Equal(ref) || k.Confirmed != confirmed {
			t.Fatalf("step %d (%v, capture %v): ledger diverged from per-id removal: len %d vs %d, confirmed %d vs %d",
				step, resp.Kind, traits.CaptureEffect, k.Candidates.Len(), ref.Len(), k.Confirmed, confirmed)
		}
	}
	if !sparse {
		t.Fatal("script never reached the sparse form")
	}
}
