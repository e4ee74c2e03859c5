package idset

import "math/bits"

// Ranked is a frozen rank/select directory over one Hybrid snapshot: it
// answers Select(k) — the k-th member in ascending order — which is what
// the streamed partitioner needs to turn permuted member ranks back into
// node ids without materializing the member slice. The zero value is
// empty; Snapshot re-targets it, reusing its buffers, so a pooled session
// can re-snapshot every round without allocating once warmed.
//
// Select is O(1). The sparse form indexes its id slice. The dense form
// reads one entry of a sampled select directory (one sample per 64
// ranks), which confines the word search to the few words those 64
// ranks span, and then finds the bit with a broadword in-word select.
// The span only widens as the set thins out (about 1/density words,
// binary-searched), and a huge set that thin has usually compacted to
// the sparse form already.
//
// A Ranked view is a copy: mutating the source set after Snapshot does
// not affect it. That is exactly the partition contract — a round's bins
// are drawn against the candidate set as it stood when the round began,
// even though Apply shrinks the live set mid-round.
type Ranked struct {
	sparse bool
	// ids is the sparse snapshot: members in ascending order.
	ids []int
	// words/sums are the dense snapshot: the bitset words plus a prefix
	// count directory, sums[i] = number of members in words[:i].
	words []uint64
	sums  []int32
	// samples is the dense select directory: samples[j] is the index of
	// the word holding member rank j·sampleRate, and a final sentinel
	// holds the last word, so the word of rank k lies between
	// samples[k/sampleRate] and samples[k/sampleRate+1] inclusive.
	samples []int32
	n       int
}

// sampleRate is the rank stride of the select directory. One sample per
// 64 ranks costs n/64 int32s at most (62 KB at 10^6) and keeps the
// directory search to a few words; 256 and 1024 measured slower in
// BenchmarkRankedSelect. Snapshot relies on it being at least 64.
const sampleRate = 64

// Snapshot freezes the current membership of h into rk.
func (rk *Ranked) Snapshot(h *Hybrid) {
	rk.n = h.Len()
	if h.isSparse {
		rk.sparse = true
		if cap(rk.ids) < compactLimit {
			// As in Compact: size for the largest sparse snapshot once.
			rk.ids = make([]int, 0, compactLimit)
		}
		rk.ids = append(rk.ids[:0], h.sparse.ids...)
		return
	}
	rk.sparse = false
	rk.words = append(rk.words[:0], h.dense.Set.Words()...)
	if cap(rk.sums) < len(rk.words)+1 {
		rk.sums = make([]int32, len(rk.words)+1)
	}
	rk.sums = rk.sums[:len(rk.words)+1]
	if need := rk.n/sampleRate + 2; cap(rk.samples) < need {
		rk.samples = make([]int32, 0, need)
	}
	samples := rk.samples[:0]
	var total, next int32
	for i, w := range rk.words {
		rk.sums[i] = total
		total += int32(bits.OnesCount64(w))
		// A word holds at most 64 ranks, so at most one multiple of
		// sampleRate falls inside it.
		if total > next {
			samples = append(samples, int32(i))
			next += sampleRate
		}
	}
	rk.sums[len(rk.words)] = total
	rk.samples = append(samples, int32(len(rk.words)-1))
}

// Len returns the number of members in the snapshot.
func (rk *Ranked) Len() int { return rk.n }

// Select returns the k-th member (0-based) in ascending order. It panics
// if k is out of [0, Len()).
func (rk *Ranked) Select(k int) int {
	if k < 0 || k >= rk.n {
		panic("idset: Select rank out of range")
	}
	if rk.sparse {
		return rk.ids[k]
	}
	// Find the word holding the k-th set bit: the last word whose prefix
	// count is ≤ k, searched only between the two samples around k.
	j := k / sampleRate
	lo, hi := int(rk.samples[j]), int(rk.samples[j+1])
	for lo < hi {
		mid := int(uint(lo+hi+1) >> 1)
		if int(rk.sums[mid]) <= k {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo*64 + select64(rk.words[lo], k-int(rk.sums[lo]))
}

const (
	ones8  = 0x0101010101010101
	highs8 = 0x8080808080808080
)

// selectInByte[b*8+r] is the position of the r-th set bit of byte b.
var selectInByte = func() (t [256 * 8]uint8) {
	for b := 0; b < 256; b++ {
		r := 0
		for i := 0; i < 8; i++ {
			if b&(1<<i) != 0 {
				t[b*8+r] = uint8(i)
				r++
			}
		}
	}
	return t
}()

// select64 returns the position of the r-th set bit (0-based, from the
// least significant end) of x; r must be below the popcount of x. It is
// Vigna's broadword select: byte popcounts, their prefix sums in one
// multiply, a parallel byte compare against r to find the byte, and a
// table lookup inside it.
func select64(x uint64, r int) int {
	s := x - (x>>1)&0x5555555555555555
	s = s&0x3333333333333333 + (s>>2)&0x3333333333333333
	s = (s + s>>4) & 0x0f0f0f0f0f0f0f0f
	// Byte i of sums is the popcount of bytes 0..i of x (at most 64).
	sums := s * ones8
	// Bit 7 of byte i is set iff sums byte i ≤ r; those bytes form a
	// prefix, so their count locates the byte holding the r-th bit.
	le := ((uint64(r)*ones8 | highs8) - sums) & highs8
	place := uint(bits.OnesCount64(le)) * 8
	before := int((sums << 8 >> place) & 0xff)
	return int(place) + int(selectInByte[int((x>>place)&0xff)*8+r-before])
}
