package idset

import (
	"slices"
	"testing"

	"tcast/internal/rng"
)

// FuzzFilterRanks checks FilterRanks against a map model. From the seed
// it draws a universe and a snapshot in either form (dense, or compacted
// to sparse above the cutover), removes a random subset from the live
// set so it is a subset of the snapshot, marks random ranks (and bits
// past the last rank) and filters. The live set must then hold exactly
// the members whose rank's mark equals keep, and Len must agree.
func FuzzFilterRanks(f *testing.F) {
	f.Add(uint64(1), uint16(130), false, false)
	f.Add(uint64(2), uint16(4000), true, true)
	f.Add(uint64(3), uint16(64), false, true)
	f.Add(uint64(4), uint16(0), true, false)
	f.Add(uint64(79), uint16(4176), false, true)
	f.Fuzz(func(t *testing.T, seed uint64, size uint16, sparse, keep bool) {
		r := rng.New(seed)
		// Densities from empty through full words to full, so every
		// fast path and every mark-run alignment shows up.
		pick := func() float64 {
			return []float64{0, 0.02, 0.3, 0.7, 0.97, 1, r.Float64()}[r.Intn(7)]
		}
		n := 1 + int(size)
		if sparse {
			n = SparseCutover + int(size)
		}
		in := pick()
		if sparse {
			in = min(in, float64(compactLimit)/float64(n))
		}
		h := hybridOf(n, func(int) bool { return r.Bernoulli(in) })
		if sparse {
			for _, id := range h.Members()[min(h.Len(), compactLimit):] {
				h.Remove(id)
			}
			h.Compact()
		}
		var rk Ranked
		rk.Snapshot(h)
		snap := h.Members()
		out := pick()
		for _, id := range snap {
			if r.Bernoulli(out) {
				h.Remove(id)
			}
		}
		marks := NewDense(rk.Len() + r.Intn(130))
		on := pick()
		for i := 0; i < marks.Cap(); i++ {
			if r.Bernoulli(on) {
				marks.Add(i)
			}
		}
		var want []int
		for rank, id := range snap {
			if h.Contains(id) && marks.Contains(rank) == keep {
				want = append(want, id)
			}
		}
		h.FilterRanks(&rk, marks, keep)
		if got := h.Members(); !slices.Equal(got, want) || h.Len() != len(want) {
			t.Fatalf("n=%d sparse=%v keep=%v: got %d members (Len %d), want %d", n, sparse, keep, len(got), h.Len(), len(want))
		}
		if h.IsSparse() != sparse {
			t.Fatalf("FilterRanks changed the form")
		}
	})
}

// TestFilterRanksRejectsForeignSnapshot: a snapshot of the other form or
// a mark map shorter than the snapshot is a caller bug and panics.
func TestFilterRanksRejectsForeignSnapshot(t *testing.T) {
	dense := FullHybrid(SparseCutover)
	sparse := FullHybrid(SparseCutover)
	for id := 10; id < SparseCutover; id++ {
		sparse.Remove(id)
	}
	sparse.Compact()
	var rkDense, rkSparse Ranked
	rkDense.Snapshot(dense)
	rkSparse.Snapshot(sparse)
	for name, f := range map[string]func(){
		"sparse set, dense snapshot": func() { sparse.FilterRanks(&rkDense, NewDense(SparseCutover), true) },
		"dense set, sparse snapshot": func() { dense.FilterRanks(&rkSparse, NewDense(10), true) },
		"short marks":                func() { dense.FilterRanks(&rkDense, NewDense(SparseCutover-1), true) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}
