// Package binning implements the group-formation strategies the paper's
// algorithms use: random equal-sized partitions (Algorithms 1-3) and
// per-node probabilistic sampling bins (Sections V-D and VI).
package binning

import (
	"tcast/internal/rng"
)

// RandomPartition splits members into b bins of nearly equal size by
// shuffling the members uniformly and chunking the shuffled order into b
// consecutive bins. Bin sizes are therefore exact — they differ by at most
// one node — not binomially distributed as independent uniform assignment
// would make them; only the *membership* of each bin is random. This is
// the balls-into-bins scheme the paper's cost analysis assumes (every
// round polls bins of size ~n/b). When b > len(members), the trailing bins
// are empty of nodes; following Section IV-C they are placed last so early
// termination never pays for them. It panics if b <= 0.
func RandomPartition(members []int, b int, r *rng.Source) [][]int {
	var a Arena
	return a.RandomPartition(members, b, r)
}

// Arena owns the backing arrays of a partition — the shuffled member
// buffer and the bin-header slice — so hot loops can re-partition every
// round without allocating. The zero value is ready to use; each
// RandomPartition call invalidates the bins returned by the previous one.
// An Arena is not safe for concurrent use; pooled trial state holds one
// arena per trial slot.
type Arena struct {
	buf  []int
	bins [][]int
}

// RandomPartition is binning.RandomPartition drawing the identical random
// sequence, with the shuffle performed in the arena's reused buffer and
// the bin headers written into its reused slice.
func (a *Arena) RandomPartition(members []int, b int, r *rng.Source) [][]int {
	if b <= 0 {
		panic("binning: bin count must be positive")
	}
	n := len(members)
	a.buf = shuffleMembers(a.buf, members, r)
	if cap(a.bins) < b {
		a.bins = make([][]int, b)
	}
	bins := a.bins[:b]
	for i := 0; i < b; i++ {
		lo, hi := chunkBounds(n, b, i)
		bins[i] = a.buf[lo:hi]
	}
	return bins
}

// shuffleMembers is the draw loop behind every materialized random
// partition in this package — binning.RandomPartition and Arena pooling
// both route through it, which is the draw-order contract the
// pooled-vs-fresh property tests pin:
//
//   - exactly max(0, len(members)-1) Intn draws are consumed — the
//     Fisher-Yates sequence of rng.ShuffleInts, swap index i descending
//     from len-1 — and nothing else;
//   - the shuffle acts on a copy, so the caller's member order is never
//     observed or disturbed.
//
// The shuffled members land in buf (grown as needed) and the resized
// buffer is returned for reuse.
func shuffleMembers(buf, members []int, r *rng.Source) []int {
	n := len(members)
	if cap(buf) < n {
		buf = make([]int, n)
	}
	buf = buf[:n]
	copy(buf, members)
	r.ShuffleInts(buf)
	return buf
}

// chunkBounds returns the half-open range [lo, hi) of shuffled positions
// bin i covers when n members split into b bins: the first n%b bins get
// ceil(n/b) members, the rest floor(n/b), and bins beyond n are empty —
// which places them last, so early termination never pays for them
// (Section IV-C). Every partitioner in this package — materialized or
// streamed — derives its bin extents from this one rule.
func chunkBounds(n, b, i int) (lo, hi int) {
	base := n / b
	extra := n % b
	lo = i*base + min(i, extra)
	hi = lo + base
	if i < extra {
		hi++
	}
	return lo, hi
}

// AppendProbabilisticBin draws one sampling bin and appends it to dst:
// each member joins independently with probability q. This is the probe
// of Section V-D (q = 2/t) and the repeated sample of Section VI
// (q = 1/b). Pass a reused buffer sliced to length zero to draw the bin
// without allocating. It draws exactly what a loop of r.Bernoulli(q) over members draws —
// nothing when q <= 0 or q >= 1, otherwise one Uint64 per member — but
// decides each draw with one integer comparison against a precomputed
// rng.Threshold on a detached stream. q must not be NaN: NewThreshold
// panics on it, where Bernoulli(NaN) drew and rejected silently.
func AppendProbabilisticBin(dst, members []int, q float64, r *rng.Source) []int {
	th := rng.NewThreshold(q)
	st := r.Detach()
	for _, id := range members {
		var hit bool
		if hit, st = st.Hit(th); hit {
			dst = append(dst, id)
		}
	}
	r.Resume(st)
	return dst
}
