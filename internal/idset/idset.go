// Package idset provides the ID-set substrate the query layers share: a
// set of node identifiers in [0, n) with two interchangeable
// representations behind the same methods.
//
// The dense form is a bitset word array — the right shape for the paper's
// own populations (hundreds of nodes), where whole-set sweeps and
// word-parallel intersections dominate. The sparse form is a sorted ID
// slice — the right shape late in a million-node session, when a handful
// of candidates survive out of 10^7 and every O(n/64) word scan would
// dwarf the real work. Hybrid owns both backings and switches between
// them under an explicit cutover rule, so callers (query.Knowledge, the
// audit shadow ledger, the streamed partitioner) never branch on the
// representation themselves.
//
// Representation never leaks into randomness: members enumerate in
// ascending order in either form, so every figure table produced below
// the cutover is byte-identical to the dense-only code this package
// replaced.
package idset

import (
	"fmt"
	"math/bits"
	"slices"
)

const (
	// SparseCutover is the population size at which the scale machinery
	// (sparse sampling, streamed partitions, hybrid compaction) switches
	// on. Every paper-scale experiment (N ≤ 1024) sits far below it, so
	// their RNG draw sequences — and therefore all committed figure
	// tables, traces and audit dumps — are bit-identical to the
	// pre-hybrid code. Above it the dense O(n) scratch paths would
	// dominate wall clock and bytes, so callers stream instead.
	SparseCutover = 1 << 14

	// compactLimit is the cardinality at which a huge hybrid set folds
	// its dense words down to the sorted-slice form: 4096 ids (32 KiB)
	// against ≥ SparseCutover/64 words keeps the fold amortized — a set
	// only compacts after eliminating ≥ 75% of a cutover-sized field.
	compactLimit = 4096
)

// Dense is the word-array form: bit b of words[w] is member w*64+b. The
// zero value is an empty set over the empty universe; Reset re-targets it.
type Dense struct {
	words []uint64
	n     int // universe size: members are [0, n)
	count int // cached cardinality
}

// NewDense returns an empty dense set over [0, n).
func NewDense(n int) *Dense {
	d := &Dense{}
	d.Reset(n)
	return d
}

// Cap returns the universe size.
func (d *Dense) Cap() int { return d.n }

// Len returns the number of members.
func (d *Dense) Len() int { return d.count }

func (d *Dense) check(id int) {
	if id < 0 || id >= d.n {
		panic(fmt.Sprintf("idset: element %d out of range [0,%d)", id, d.n))
	}
}

// Contains reports membership; out-of-range ids are simply absent.
func (d *Dense) Contains(id int) bool {
	if id < 0 || id >= d.n {
		return false
	}
	return d.words[id/64]&(1<<uint(id%64)) != 0
}

// Add inserts id. It panics out of range.
func (d *Dense) Add(id int) {
	d.check(id)
	w, b := id/64, uint(id%64)
	if d.words[w]&(1<<b) == 0 {
		d.words[w] |= 1 << b
		d.count++
	}
}

// Mark sets the bits of ids, each of which must lie in [0, Cap()). Unlike
// Add it neither range-checks each id nor keeps the count, so Len is
// stale until the next Reset: it is for mark maps that are only read
// bitwise, such as the marks of Hybrid.FilterRanks.
func (d *Dense) Mark(ids []int) {
	words := d.words
	for _, id := range ids {
		words[id>>6] |= 1 << uint(id&63)
	}
}

// Remove deletes id; absent ids are a no-op. It panics out of range.
func (d *Dense) Remove(id int) {
	d.check(id)
	w, b := id/64, uint(id%64)
	if d.words[w]&(1<<b) != 0 {
		d.words[w] &^= 1 << b
		d.count--
	}
}

// Reset empties the set and re-targets it at [0, n), reusing the word
// array when it is large enough, so pooled sets stay allocation-free
// once warmed.
func (d *Dense) Reset(n int) {
	if n < 0 {
		panic("idset: negative capacity")
	}
	need := (n + 63) / 64
	if cap(d.words) < need {
		d.words = make([]uint64, need)
	} else {
		d.words = d.words[:need]
		clear(d.words)
	}
	d.n = n
	d.count = 0
}

// Fill sets the membership to the full universe {0, ..., n-1}, clearing
// the bits beyond n in the last word.
func (d *Dense) Fill() {
	for i := range d.words {
		d.words[i] = ^uint64(0)
	}
	if rem := d.n % 64; rem != 0 {
		d.words[len(d.words)-1] = 1<<uint(rem) - 1
	}
	d.count = d.n
}

// Clone returns an independent copy of the set.
func (d *Dense) Clone() *Dense {
	return &Dense{words: slices.Clone(d.words), n: d.n, count: d.count}
}

// Members returns the members in ascending order.
func (d *Dense) Members() []int {
	return d.AppendMembers(make([]int, 0, d.count))
}

// AppendMembers appends the members in ascending order to dst; hot loops
// pass a reused buffer.
func (d *Dense) AppendMembers(dst []int) []int {
	for w, word := range d.words {
		for word != 0 {
			dst = append(dst, w*64+bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
	return dst
}

// Sparse is the sorted-slice form: ids ascending, no duplicates. The
// zero value is an empty set over the empty universe.
type Sparse struct {
	n   int
	ids []int
}

// NewSparse returns an empty sparse set over [0, n).
func NewSparse(n int) *Sparse {
	return &Sparse{n: n}
}

// Cap returns the universe size.
func (s *Sparse) Cap() int { return s.n }

// Len returns the number of members.
func (s *Sparse) Len() int { return len(s.ids) }

// Reset empties the set and re-targets it at [0, n), keeping the backing
// slice.
func (s *Sparse) Reset(n int) {
	if n < 0 {
		panic("idset: negative capacity")
	}
	s.n = n
	s.ids = s.ids[:0]
}

// search returns the insertion index of id (sort.SearchInts, open-coded
// so the hot membership test stays free of interface calls). It compares
// decoded values, v ^ v>>63, so it also works mid-RemoveIDs, while some
// entries hold a mark -1-id in place of id; elsewhere every entry is
// non-negative and decodes to itself.
func (s *Sparse) search(id int) int {
	lo, hi := 0, len(s.ids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v := s.ids[mid]; v^(v>>63) < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Contains reports membership by binary search.
func (s *Sparse) Contains(id int) bool {
	i := s.search(id)
	return i < len(s.ids) && s.ids[i] == id
}

// Remove deletes id; absent ids are a no-op.
func (s *Sparse) Remove(id int) {
	i := s.search(id)
	if i >= len(s.ids) || s.ids[i] != id {
		return
	}
	s.ids = append(s.ids[:i], s.ids[i+1:]...)
}

// RemoveIDs deletes every listed id; absent and repeated ids are no-ops.
// Each hit is found by binary search and marked in place as -1-id, which
// keeps the slice searchable (see search), and one compaction pass then
// drops the marks: O(|ids|·log|s| + |s|) against Remove's one memmove
// per id.
func (s *Sparse) RemoveIDs(ids []int) {
	first := len(s.ids) // lowest marked index
	for _, id := range ids {
		if id < 0 {
			continue // absent; and -1-id could match a mark
		}
		if i := s.search(id); i < len(s.ids) && s.ids[i] == id {
			s.ids[i] = -1 - id
			first = min(first, i)
		}
	}
	kept := s.ids[:first]
	for _, id := range s.ids[first:] {
		if id >= 0 {
			kept = append(kept, id)
		}
	}
	s.ids = kept
}

// AppendMembers appends the members in ascending order.
func (s *Sparse) AppendMembers(dst []int) []int {
	return append(dst, s.ids...)
}

// Hybrid is the adaptive set: dense words until a huge universe has been
// whittled down far enough that the sorted-slice form wins, sparse
// afterwards. Both backings persist across Reset so pooled sessions
// reuse them allocation-free. Not safe for concurrent use.
type Hybrid struct {
	dense  Dense
	sparse Sparse
	// isSparse selects the live backing. Sets over universes below
	// SparseCutover never leave the dense form.
	isSparse bool
}

// NewHybrid returns an empty hybrid set over [0, n) in dense form.
func NewHybrid(n int) *Hybrid {
	h := &Hybrid{}
	h.Reset(n)
	return h
}

// FullHybrid returns the hybrid set {0, ..., n-1}.
func FullHybrid(n int) *Hybrid {
	h := NewHybrid(n)
	h.Fill()
	return h
}

// Reset empties the set, re-targets it at [0, n), and returns to the
// dense form, recycling both backings. A reset hybrid is
// indistinguishable from NewHybrid(n) whatever state it was in.
func (h *Hybrid) Reset(n int) {
	h.dense.Reset(n)
	h.sparse.Reset(n)
	h.isSparse = false
}

// Fill sets the membership to the full universe {0, ..., n-1}. A full
// set is by definition dense, so Fill always lands in dense form.
func (h *Hybrid) Fill() {
	if h.isSparse {
		h.sparse.ids = h.sparse.ids[:0]
		h.isSparse = false
	}
	h.dense.Fill()
}

// Cap returns the universe size.
func (h *Hybrid) Cap() int {
	if h.isSparse {
		return h.sparse.Cap()
	}
	return h.dense.Cap()
}

// Len returns the number of members.
func (h *Hybrid) Len() int {
	if h.isSparse {
		return h.sparse.Len()
	}
	return h.dense.Len()
}

// Contains reports membership.
func (h *Hybrid) Contains(id int) bool {
	if h.isSparse {
		return h.sparse.Contains(id)
	}
	return h.dense.Contains(id)
}

// Remove deletes id; absent ids are a no-op.
func (h *Hybrid) Remove(id int) {
	if h.isSparse {
		h.sparse.Remove(id)
		return
	}
	h.dense.Remove(id)
}

// RemoveIDs deletes every listed id, exactly as calling Remove on each
// in turn would: the dense form clears bits one by one, the sparse form
// removes the whole batch in one compaction pass (Sparse.RemoveIDs).
func (h *Hybrid) RemoveIDs(ids []int) {
	if h.isSparse {
		h.sparse.RemoveIDs(ids)
		return
	}
	for _, id := range ids {
		h.dense.Remove(id)
	}
}

// AppendMembers appends the members in ascending order to dst.
func (h *Hybrid) AppendMembers(dst []int) []int {
	if h.isSparse {
		return h.sparse.AppendMembers(dst)
	}
	return h.dense.AppendMembers(dst)
}

// Members returns the members in ascending order.
func (h *Hybrid) Members() []int {
	return h.AppendMembers(make([]int, 0, h.Len()))
}

// Compact folds a huge, mostly-eliminated dense set down to the sorted
// slice form, and reports whether the set is sparse afterwards. The rule
// is deliberately one-way within a session: universes below SparseCutover
// never compact (their dense words are already tiny), and a compacted set
// only returns to dense form through Reset/Fill. Streamed callers invoke
// it once per round; the fold itself is O(n/64) and happens at most once
// per session.
func (h *Hybrid) Compact() bool {
	if h.isSparse {
		return true
	}
	if h.dense.Cap() < SparseCutover || h.dense.Len() > compactLimit {
		return false
	}
	h.sparse.Reset(h.dense.Cap())
	if cap(h.sparse.ids) < compactLimit {
		// Size for the largest fold up front: a pooled set then never
		// regrows its slice when a later session compacts more members.
		h.sparse.ids = make([]int, 0, compactLimit)
	}
	h.sparse.ids = h.dense.AppendMembers(h.sparse.ids[:0])
	h.isSparse = true
	return true
}

// Equal reports whether h and o contain exactly the same members over
// the same universe, whatever forms they are in (a test-path helper, not
// a hot path).
func (h *Hybrid) Equal(o *Hybrid) bool {
	return h.Cap() == o.Cap() && slices.Equal(h.Members(), o.Members())
}
