package binning

import (
	"math/bits"

	"tcast/internal/rng"
)

// Streamer yields a random equal-sized partition one bin at a time, so a
// round over a million-candidate field never materializes the full
// [][]int partition. Bin sizes follow the same chunkBounds rule as
// RandomPartition, but no member buffer exists at all: bin i is the
// preimage of shuffled positions [lo, hi) under a keyed Feistel
// permutation of [0, m), decoded on demand into the caller's buffer. One
// uniform 64-bit key replaces the m-1 Fisher-Yates draws, so the cost per
// round is O(|bin|) time and O(1) space regardless of m. The permutation
// is uniform over a family of 4-round Feistel networks rather than over
// all m! orderings — the paper's analysis only needs exchangeable
// equal-sized bins, which the keyed network provides — and it is
// invertible, so Place can answer "where did rank j land" in O(1), which
// lets a caller find the bins of a few known members without decoding any
// bin.
//
// The zero value is ready; StartPermuted reinitializes in place. Not safe
// for concurrent use.
type Streamer struct {
	m, b int
	f    feistel
}

// StartPermuted begins streaming a partition of the ranks [0, m) into b
// bins under the Feistel permutation keyed by key (one r.Uint64() at the
// call site). The bins contain member *ranks*; callers map rank to node
// id through their own directory (idset.Ranked in core).
func (st *Streamer) StartPermuted(m, b int, key uint64) {
	if b <= 0 {
		panic("binning: bin count must be positive")
	}
	if m < 0 {
		panic("binning: negative member count")
	}
	st.m, st.b = m, b
	st.f = newFeistel(m, key)
}

// Bins returns the bin count b of the current partition.
func (st *Streamer) Bins() int { return st.b }

// Members returns the member (or rank) count m of the current partition.
func (st *Streamer) Members() int { return st.m }

// BinSize returns |bin i| without materializing it.
func (st *Streamer) BinSize(i int) int {
	lo, hi := chunkBounds(st.m, st.b, i)
	return hi - lo
}

// AppendBin appends bin i's member ranks to dst and returns the extended
// slice. Bins stream in any order, any number of times — the partition is
// a pure function of the StartPermuted state.
func (st *Streamer) AppendBin(i int, dst []int) []int {
	lo, hi := chunkBounds(st.m, st.b, i)
	for p := lo; p < hi; p++ {
		dst = append(dst, st.f.invert(p))
	}
	return dst
}

// Place returns the bin that member rank j landed in and its position
// in the partition. Positions run through the bins in order, so bin i's
// members are the ranks placed at positions lo..hi-1 of chunkBounds, and
// AppendBin lists them in ascending position order.
func (st *Streamer) Place(j int) (bin, pos int) {
	pos = st.f.apply(j)
	base, extra := st.m/st.b, st.m%st.b
	pivot := extra * (base + 1)
	if pos < pivot {
		return pos / (base + 1), pos
	}
	return extra + (pos-pivot)/base, pos
}

// feistel is a 4-round balanced Feistel network on 2h-bit values,
// restricted to [0, m) by cycle-walking: values that leave the range are
// re-encrypted until they return, which preserves bijectivity on [0, m)
// exactly (the walk stays inside the value's own permutation cycle, so
// it terminates — the cycle contains the in-range starting point). The
// domain 4^h is the smallest square of a power of two ≥ m, so a walk
// takes < 4 steps in expectation. Round keys derive from one 64-bit key
// through the same SplitMix64 finalizer the rng package seeds with.
type feistel struct {
	keys [4]uint64
	half uint   // h: bits per half
	mask uint64 // 2^h - 1
	m    uint64
}

func newFeistel(m int, key uint64) feistel {
	var f feistel
	f.m = uint64(m)
	// Smallest h with 4^h >= m (h >= 1 so both halves are non-empty).
	h := uint((bits.Len64(f.m-1|1) + 1) / 2)
	if h == 0 {
		h = 1
	}
	f.half = h
	f.mask = (1 << h) - 1
	x := key
	for i := range f.keys {
		f.keys[i] = rng.SplitMix64(&x)
	}
	return f
}

// round is the keyed mixing function F(r, i); only its low h bits are
// used, so any 64-bit mixer works.
func (f *feistel) round(r uint64, i int) uint64 {
	z := (r + f.keys[i]) * 0xbf58476d1ce4e5b9
	z ^= z >> 31
	return z
}

// enc applies the 4 Feistel rounds on the full 2h-bit domain.
func (f *feistel) enc(x uint64) uint64 {
	l, r := x>>f.half, x&f.mask
	for i := 0; i < 4; i++ {
		l, r = r, l^(f.round(r, i)&f.mask)
	}
	return l<<f.half | r
}

// dec inverts enc.
func (f *feistel) dec(x uint64) uint64 {
	l, r := x>>f.half, x&f.mask
	for i := 3; i >= 0; i-- {
		l, r = r^(f.round(l, i)&f.mask), l
	}
	return l<<f.half | r
}

// apply maps rank j to its shuffled position, cycle-walking into range.
func (f *feistel) apply(j int) int {
	p := f.enc(uint64(j))
	for p >= f.m {
		p = f.enc(p)
	}
	return int(p)
}

// invert maps a shuffled position back to its rank.
func (f *feistel) invert(p int) int {
	j := f.dec(uint64(p))
	for j >= f.m {
		j = f.dec(j)
	}
	return int(j)
}
