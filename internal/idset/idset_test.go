package idset

import (
	"fmt"
	"math/bits"
	"testing"

	"tcast/internal/rng"
)

// Program code only ever shrinks a set built by Fill and never asks
// which form is live, so the growing side of the sparse and hybrid forms
// and the form accessor are declared here, for the tests alone.

// Add inserts id in sorted position. It panics out of range.
func (s *Sparse) Add(id int) {
	if id < 0 || id >= s.n {
		panic("idset: element out of range")
	}
	i := s.search(id)
	if i < len(s.ids) && s.ids[i] == id {
		return
	}
	s.ids = append(s.ids, 0)
	copy(s.ids[i+1:], s.ids[i:])
	s.ids[i] = id
}

// Add inserts id. It panics out of range.
func (h *Hybrid) Add(id int) {
	if h.isSparse {
		h.sparse.Add(id)
		return
	}
	h.dense.Add(id)
}

// IsSparse reports which form is live.
func (h *Hybrid) IsSparse() bool { return h.isSparse }

// set is the contract both forms and the hybrid share. Members are
// integers in [0, Cap()); enumeration is always ascending.
type set interface {
	Cap() int
	Len() int
	Contains(id int) bool
	Add(id int)
	Remove(id int)
	AppendMembers(dst []int) []int
}

// model is the reference implementation both forms are checked against.
type model map[int]bool

func (m model) members(n int) []int {
	var out []int
	for id := 0; id < n; id++ {
		if m[id] {
			out = append(out, id)
		}
	}
	return out
}

// forms is one Dense, one Sparse and one Hybrid over the same universe,
// driven through the same mutations and checked against a map model.
type forms struct {
	n    int
	sets []set
	m    model
}

func newForms(n int) *forms {
	return &forms{n: n, sets: []set{NewDense(n), NewSparse(n), NewHybrid(n)}, m: model{}}
}

func (f *forms) add(id int) {
	f.m[id] = true
	for _, s := range f.sets {
		s.Add(id)
	}
}

func (f *forms) remove(id int) {
	delete(f.m, id)
	for _, s := range f.sets {
		s.Remove(id)
	}
}

// fill makes the whole universe members: Dense and Hybrid by Fill, and
// Sparse, which has no Fill, by adding every id.
func (f *forms) fill() {
	for id := 0; id < f.n; id++ {
		f.m[id] = true
	}
	for _, s := range f.sets {
		if fl, ok := s.(interface{ Fill() }); ok {
			fl.Fill()
			continue
		}
		for id := 0; id < f.n; id++ {
			s.Add(id)
		}
	}
}

// reset empties every form and re-targets it at [0, n).
func (f *forms) reset(n int) {
	f.n, f.m = n, model{}
	for _, s := range f.sets {
		s.(interface{ Reset(n int) }).Reset(n)
	}
}

// check compares every observable of every form with the model: Cap,
// Len, Contains at probe and just outside the universe, and the members
// in ascending order through AppendMembers. Bits a Fill or Reset failed
// to trim past the universe's end would show up as extra members.
func (f *forms) check(t *testing.T, step string, probe int) {
	t.Helper()
	want := f.m.members(f.n)
	for _, s := range f.sets {
		if s.Cap() != f.n || s.Len() != len(want) {
			t.Fatalf("%s: %T Cap=%d Len=%d, want %d and %d", step, s, s.Cap(), s.Len(), f.n, len(want))
		}
		for _, id := range []int{probe, -1, f.n, f.n + 64} {
			if s.Contains(id) != f.m[id] {
				t.Fatalf("%s: %T Contains(%d)=%v want %v", step, s, id, s.Contains(id), f.m[id])
			}
		}
		got := s.AppendMembers(nil)
		if len(got) != len(want) {
			t.Fatalf("%s: %T members %v want %v", step, s, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: %T members %v want %v", step, s, got, want)
			}
		}
	}
}

// TestFormsAgree drives Dense, Sparse and Hybrid through the same
// mutation script and checks every observable against the map model.
// One set of forms is reset from universe to universe, growing and
// shrinking across word boundaries, so a reset set must look new
// whatever it held. Each universe starts empty, takes the ids around
// every word boundary (with a repeated Add and Remove), is filled, and
// then takes a random walk of Adds and Removes with the odd Fill or
// Reset.
func TestFormsAgree(t *testing.T) {
	r := rng.New(7)
	f := newForms(0)
	for _, n := range []int{130, 7, 300, 0, 64, 1, 63, 200, 65} {
		f.reset(n)
		f.check(t, fmt.Sprintf("n=%d reset", n), 0)
		for _, id := range []int{0, 1, 63, 64, 65, 127, 128, 129, 63} {
			if id < n {
				f.add(id)
				f.check(t, fmt.Sprintf("n=%d add %d", n, id), id)
			}
		}
		for _, id := range []int{63, 63, 0} {
			if id < n {
				f.remove(id)
				f.check(t, fmt.Sprintf("n=%d remove %d", n, id), id)
			}
		}
		f.fill()
		f.check(t, fmt.Sprintf("n=%d fill", n), n-1)
		for step := 0; n > 0 && step < 1000; step++ {
			id := r.Intn(n)
			switch p := r.Float64(); {
			case p < 0.01:
				f.fill()
			case p < 0.02:
				f.reset(n)
			case p < 0.51:
				f.add(id)
			default:
				f.remove(id)
			}
			f.check(t, fmt.Sprintf("n=%d step %d", n, step), r.Intn(n))
		}
	}
}

// FuzzFormsAgree runs a fuzz-chosen script of Add, Remove, Fill and
// Reset over universes of up to 255 ids (four word boundaries) through
// all three forms and checks them against the map model after each op.
// Each op is two bytes: the op, then its argument (an id mod n, or the
// new universe size for Reset).
func FuzzFormsAgree(f *testing.F) {
	f.Add(uint8(130), []byte{0, 0, 0, 63, 0, 64, 1, 63, 2, 0, 3, 65, 0, 64})
	f.Add(uint8(64), []byte{2, 0, 1, 63, 3, 1, 0, 0, 3, 200, 2, 0})
	f.Add(uint8(0), []byte{2, 0, 0, 5, 3, 129, 2, 0, 1, 128})
	f.Fuzz(func(t *testing.T, n uint8, script []byte) {
		fs := newForms(int(n))
		for i := 0; i+1 < len(script); i += 2 {
			arg := int(script[i+1])
			switch script[i] % 4 {
			case 0:
				if fs.n > 0 {
					fs.add(arg % fs.n)
				}
			case 1:
				if fs.n > 0 {
					fs.remove(arg % fs.n)
				}
			case 2:
				fs.fill()
			case 3:
				fs.reset(arg)
			}
			fs.check(t, fmt.Sprintf("op %d", i/2), arg)
		}
	})
}

// TestOutOfRangePanics: the dense form (and a Hybrid in it) panics on an
// Add or Remove outside the universe, either side of it.
func TestOutOfRangePanics(t *testing.T) {
	d, h := NewDense(10), NewHybrid(10)
	for _, f := range []func(){
		func() { d.Add(10) },
		func() { d.Add(-1) },
		func() { d.Remove(10) },
		func() { d.Remove(-1) },
		func() { h.Add(10) },
		func() { h.Remove(-1) },
		func() { NewDense(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

// TestAppendMembersReusesBuffer: with room in dst, every form appends in
// place.
func TestAppendMembersReusesBuffer(t *testing.T) {
	f := newForms(70)
	for _, id := range []int{3, 64, 69} {
		f.add(id)
	}
	for _, s := range f.sets {
		buf := make([]int, 0, 8)
		got := s.AppendMembers(buf)
		if len(got) != 3 || got[0] != 3 || got[1] != 64 || got[2] != 69 {
			t.Fatalf("%T: members %v", s, got)
		}
		if &got[0] != &buf[:1][0] {
			t.Fatalf("%T: AppendMembers reallocated despite sufficient capacity", s)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	d := NewDense(130)
	d.Add(5)
	d.Add(129)
	c := d.Clone()
	c.Add(6)
	c.Remove(129)
	if d.Contains(6) || !d.Contains(129) || d.Len() != 2 {
		t.Fatal("Clone shares storage with the original")
	}
	if !c.Contains(5) || c.Len() != 2 || c.Cap() != 130 {
		t.Fatalf("Clone lost state: len %d cap %d", c.Len(), c.Cap())
	}
}

func TestSparseAddRemoveEdges(t *testing.T) {
	s := NewSparse(10)
	for _, id := range []int{5, 1, 9, 0, 5} { // duplicate Add is a no-op
		s.Add(id)
	}
	if got := s.AppendMembers(nil); len(got) != 4 || got[0] != 0 || got[3] != 9 {
		t.Fatalf("members = %v", got)
	}
	s.Remove(4) // absent: no-op
	s.Remove(0)
	s.Remove(9)
	if got := s.AppendMembers(nil); len(got) != 2 || got[0] != 1 || got[1] != 5 {
		t.Fatalf("members after removes = %v", got)
	}
	if s.Contains(10) || s.Contains(-1) {
		t.Fatal("out-of-range ids reported present")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Add did not panic")
		}
	}()
	s.Add(10)
}

// TestHybridCompact: compaction fires only above the cutover and below
// the cardinality limit, preserves membership exactly, and Reset/Fill
// return the set to dense form.
func TestHybridCompact(t *testing.T) {
	small := FullHybrid(128)
	if small.Compact() {
		t.Fatal("sub-cutover set compacted")
	}

	n := SparseCutover
	h := FullHybrid(n)
	if h.Compact() {
		t.Fatal("full set compacted despite cardinality above limit")
	}
	// Eliminate everything but a scattered residue.
	keep := map[int]bool{0: true, 63: true, 64: true, n - 1: true, 12345: true}
	for id := 0; id < n; id++ {
		if !keep[id] {
			h.Remove(id)
		}
	}
	if !h.Compact() {
		t.Fatal("residue set did not compact")
	}
	if !h.IsSparse() {
		t.Fatal("compacted set not sparse")
	}
	if h.Len() != len(keep) {
		t.Fatalf("Len=%d want %d", h.Len(), len(keep))
	}
	for id := range keep {
		if !h.Contains(id) {
			t.Fatalf("compacted set lost %d", id)
		}
	}
	// Mutations keep working in sparse form.
	h.Remove(63)
	h.Add(999)
	if h.Contains(63) || !h.Contains(999) {
		t.Fatal("sparse-form mutation failed")
	}
	// Fill returns to dense.
	h.Fill()
	if h.IsSparse() || h.Len() != n {
		t.Fatalf("Fill: sparse=%v len=%d", h.IsSparse(), h.Len())
	}
	// Reset from sparse form returns to dense and empties.
	h.Remove(0)
	for id := 0; id < n; id++ {
		if id != 7 {
			h.Remove(id)
		}
	}
	h.Compact()
	h.Reset(64)
	if h.IsSparse() || h.Len() != 0 || h.Cap() != 64 {
		t.Fatalf("Reset: sparse=%v len=%d cap=%d", h.IsSparse(), h.Len(), h.Cap())
	}
}

// TestCompactBuffersSizedOnce: the sorted slice Compact folds into and a
// Ranked's sparse snapshot are sized for the largest fold up front, so a
// pooled set that compacts a bigger residue than any before (the next
// session's) still allocates nothing.
func TestCompactBuffersSizedOnce(t *testing.T) {
	n := SparseCutover
	h := FullHybrid(n)
	var rk Ranked
	shrink := func(keep int) {
		h.Fill()
		for id := keep; id < n; id++ {
			h.Remove(id)
		}
		if !h.Compact() {
			t.Fatalf("residue of %d did not compact", keep)
		}
		rk.Snapshot(h)
	}
	// AllocsPerRun(1, f) calls f twice and counts only the second call:
	// the first compacts a small residue, the measured one a residue of
	// the full compaction limit.
	residues := []int{10, compactLimit}
	call := 0
	allocs := testing.AllocsPerRun(1, func() {
		shrink(residues[call])
		call++
	})
	if allocs != 0 {
		t.Fatalf("compacting a larger residue allocated %v times", allocs)
	}
	if rk.Len() != compactLimit || rk.Select(compactLimit-1) != compactLimit-1 {
		t.Fatalf("snapshot Len=%d", rk.Len())
	}
}

func TestHybridEqualAcrossForms(t *testing.T) {
	n := SparseCutover
	mk := func() *Hybrid {
		h := FullHybrid(n)
		for id := 0; id < n; id++ {
			if id%1000 != 0 {
				h.Remove(id)
			}
		}
		return h
	}
	a, b := mk(), mk()
	if !a.Equal(b) {
		t.Fatal("identical dense sets not Equal")
	}
	b.Compact()
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("dense/sparse forms of the same membership not Equal")
	}
	a.Compact()
	if !a.Equal(b) {
		t.Fatal("sparse/sparse not Equal")
	}
	b.Remove(0)
	if a.Equal(b) || b.Equal(a) {
		t.Fatal("differing sets reported Equal")
	}
	// Empty sets are Equal over the same universe only.
	if !NewHybrid(64).Equal(NewHybrid(64)) || NewHybrid(64).Equal(NewHybrid(65)) {
		t.Fatal("empty sets: Equal ignores or misreads the universe")
	}
}

// checkSelect snapshots h into rk and checks every rank against the
// ascending member list, and Rank as Select's inverse on members and a
// miss on every other id.
func checkSelect(t *testing.T, label string, rk *Ranked, h *Hybrid) {
	t.Helper()
	rk.Snapshot(h)
	want := h.Members()
	if rk.Len() != len(want) {
		t.Fatalf("%s: Len=%d want %d", label, rk.Len(), len(want))
	}
	for k, id := range want {
		if got := rk.Select(k); got != id {
			t.Fatalf("%s: Select(%d)=%d want %d", label, k, got, id)
		}
		if got, ok := rk.Rank(id); got != k || !ok {
			t.Fatalf("%s: Rank(Select(%d))=(%d, %v) want (%d, true)", label, k, got, ok, k)
		}
	}
	// Every non-member, in range or not, reports ok == false.
	for _, id := range []int{-1, h.Cap(), h.Cap() + 64} {
		if _, ok := rk.Rank(id); ok {
			t.Fatalf("%s: Rank(%d) reported a member outside the universe", label, id)
		}
	}
	for id := 0; id < h.Cap(); id++ {
		if !h.Contains(id) {
			if _, ok := rk.Rank(id); ok {
				t.Fatalf("%s: Rank(%d) reported a non-member", label, id)
			}
		}
	}
}

// hybridOf returns the hybrid set over [0, n) holding the ids keep
// accepts.
func hybridOf(n int, keep func(id int) bool) *Hybrid {
	h := NewHybrid(n)
	for id := 0; id < n; id++ {
		if keep(id) {
			h.Add(id)
		}
	}
	return h
}

// TestRankedSelect checks the rank/select directory against a linear
// scan, over both forms and across the word and sample-boundary patterns
// the directory search is most likely to get wrong.
func TestRankedSelect(t *testing.T) {
	r := rng.New(11)
	for _, n := range []int{1, 63, 64, 65, 200, 1000, SparseCutover + 130} {
		h := hybridOf(n, func(int) bool { return r.Bernoulli(0.13) })
		checkSelect(t, fmt.Sprintf("n=%d dense", n), new(Ranked), h)
		if h.Cap() >= SparseCutover && h.Len() <= compactLimit {
			h.Compact()
			checkSelect(t, fmt.Sprintf("n=%d sparse", n), new(Ranked), h)
		}
	}

	// One Ranked reused across every shape below, so stale samples from a
	// larger snapshot would show.
	var rk Ranked
	const n = 40*64 + 17
	shapes := []struct {
		name string
		keep func(id int) bool
	}{
		{"full", func(int) bool { return true }},
		// 63 members a word: every sample rank j·64 lands one bit further
		// into its word, so samples straddle every in-word offset.
		{"63-per-word", func(id int) bool { return id%64 != 5 }},
		// 65-member runs across word boundaries: each sample rank falls
		// in a different word from the previous one's neighbour.
		{"runs-of-65", func(id int) bool { return id%130 < 65 }},
		// Empty runs of 5 words (more than one sample span at full
		// density) between full words.
		{"empty-runs", func(id int) bool { return (id/64)%6 == 0 }},
		// One member per 10 words: the sample span covers 640 words.
		{"one-per-10-words", func(id int) bool { return id%640 == 3 }},
		{"last-word-lone", func(id int) bool { return id == n-1 }},
		{"first-and-last", func(id int) bool { return id == 0 || id == n-1 }},
		{"exactly-64", func(id int) bool { return id >= 100 && id < 164 }},
		{"exactly-65", func(id int) bool { return id >= 100 && id < 165 }},
	}
	for _, sh := range shapes {
		checkSelect(t, sh.name, &rk, hybridOf(n, sh.keep))
	}

	// A snapshot after Compact (sparse form), then back to dense on the
	// same Ranked.
	big := hybridOf(SparseCutover, func(id int) bool { return id%9 == 0 || id == SparseCutover-1 })
	if !big.Compact() {
		t.Fatal("setup: set did not compact")
	}
	checkSelect(t, "compacted", &rk, big)
	big.Fill()
	checkSelect(t, "refilled", &rk, big)
	lone := hybridOf(SparseCutover, func(id int) bool { return id == SparseCutover-1 })
	checkSelect(t, "lone-dense", &rk, lone)
	lone.Compact()
	checkSelect(t, "lone-compacted", &rk, lone)
}

// naiveSelect64 is select64's reference: scan the bits in order.
func naiveSelect64(x uint64, r int) int {
	for i := 0; i < 64; i++ {
		if x&(1<<i) != 0 {
			if r == 0 {
				return i
			}
			r--
		}
	}
	panic("rank beyond popcount")
}

// TestSelect64 checks the broadword in-word select against a bit scan at
// every rank of random, all-ones and single-bit words.
func TestSelect64(t *testing.T) {
	words := []uint64{^uint64(0), 0x8000000000000001, 0x00ff00ff00ff00ff, 0xff00000000000000}
	for b := 0; b < 64; b++ {
		words = append(words, 1<<b, ^uint64(0)>>b, ^uint64(0)<<b)
	}
	r := rng.New(64)
	for i := 0; i < 2000; i++ {
		w := r.Uint64()
		if i%3 == 0 {
			w &= r.Uint64() & r.Uint64() // sparse words
		}
		words = append(words, w)
	}
	for _, w := range words {
		for k := 0; k < bits.OnesCount64(w); k++ {
			if got, want := select64(w, k), naiveSelect64(w, k); got != want {
				t.Fatalf("select64(%#x, %d) = %d, want %d", w, k, got, want)
			}
		}
	}
}

// TestRemoveIDsMatchesRemove drives RemoveIDs and per-id Remove through
// the same bins, in both forms and across compaction, and checks the sets
// stay equal: absent, already-removed, repeated and out-of-universe ids,
// empty bins and a bin that empties the set included.
func TestRemoveIDsMatchesRemove(t *testing.T) {
	const n = SparseCutover + 70
	r := rng.New(17)
	batch, single := FullHybrid(n), FullHybrid(n)
	remove := func(step string, bin []int) {
		t.Helper()
		batch.RemoveIDs(bin)
		for _, id := range bin {
			single.Remove(id)
		}
		if !batch.Equal(single) || batch.IsSparse() != single.IsSparse() {
			t.Fatalf("%s: RemoveIDs(%v) diverged from Remove (len %d vs %d)", step, bin, batch.Len(), single.Len())
		}
	}
	remove("empty", nil)
	remove("empty-slice", []int{})
	for step := 0; batch.Len() > 0; step++ {
		var bin []int
		size := 1 + r.Intn(40)
		if !batch.IsSparse() {
			size = 1 + r.Intn(3000)
		}
		for i := 0; i < size; i++ {
			bin = append(bin, r.Intn(n))
		}
		if len(bin) > 2 {
			bin[1] = bin[0] // a repeated id
		}
		remove(fmt.Sprintf("step %d", step), bin)
		remove(fmt.Sprintf("step %d again", step), bin) // already removed
		if step%5 == 4 {
			if batch.Compact() != single.Compact() {
				t.Fatalf("step %d: forms compacted differently", step)
			}
		}
		if batch.IsSparse() && batch.Len() < 50 {
			// The bin that empties the set, in scrambled order, with
			// out-of-universe ids (a no-op in sparse form) mixed in.
			bin = batch.Members()
			for i := range bin {
				j := r.Intn(i + 1)
				bin[i], bin[j] = bin[j], bin[i]
			}
			remove("emptying", append(bin, -3, n, n+64))
		}
	}
	if !batch.IsSparse() {
		t.Fatal("script never reached the sparse form")
	}
	remove("on empty set", []int{0, 1, n - 1})

	// The universe's end points, whose marks (-1 and -n) sit at the
	// edges of the decoded order, and negative ids equal to a mark made
	// earlier in the same batch (-2 is 1's mark).
	for _, id := range []int{0, 1, 2, 5, n - 2, n - 1} {
		batch.Add(id)
		single.Add(id)
	}
	remove("ends", []int{n - 1, 0})
	remove("marks", []int{1, 2, -2, -3, 0, n - 2})
}

// FuzzRankedSelect turns arbitrary bytes into bitset words over a
// cutover-sized universe and checks Select against AppendMembers at every
// rank, Rank(Select(k)) == (k, true), and ok == false for every
// non-member, in dense form and again after compaction.
func FuzzRankedSelect(f *testing.F) {
	f.Add([]byte{0xff}, uint16(0))
	f.Add([]byte{0x01, 0x00, 0x00, 0x80}, uint16(64))
	f.Add(make([]byte, 600), uint16(9999))
	f.Fuzz(func(t *testing.T, data []byte, offset uint16) {
		n := SparseCutover + len(data)%64
		h := NewHybrid(n)
		// Spread the bytes over the universe so empty-word runs of
		// every length show up: byte i lands stride bits after byte i-1.
		stride := 8 + int(offset%97)
		for i, b := range data {
			for bit := 0; bit < 8; bit++ {
				if b&(1<<bit) != 0 {
					h.Add((int(offset) + i*stride + bit) % n)
				}
			}
		}
		var rk Ranked
		checkSelect(t, "dense", &rk, h)
		if h.Compact() {
			checkSelect(t, "compacted", &rk, h)
		}
	})
}

// TestRankedSnapshotIsFrozen: mutating the source after Snapshot must not
// change the view — rounds partition the set as it stood at round start.
func TestRankedSnapshotIsFrozen(t *testing.T) {
	h := FullHybrid(130)
	var rk Ranked
	rk.Snapshot(h)
	h.Remove(0)
	h.Remove(129)
	if rk.Len() != 130 || rk.Select(0) != 0 || rk.Select(129) != 129 {
		t.Fatal("snapshot tracked later mutations")
	}
}

func TestRankedSelectOutOfRange(t *testing.T) {
	h := FullHybrid(8)
	var rk Ranked
	rk.Snapshot(h)
	defer func() {
		if recover() == nil {
			t.Fatal("Select(8) on 8 members did not panic")
		}
	}()
	rk.Select(8)
}

// BenchmarkRankedSelect times one Select at a random rank of a full
// 10^6-member snapshot and of a 13%-dense one.
func BenchmarkRankedSelect(b *testing.B) {
	const n = 1_000_000
	r := rng.New(5)
	for _, tc := range []struct {
		name string
		h    *Hybrid
	}{
		{"full", FullHybrid(n)},
		{"13pct", hybridOf(n, func(int) bool { return r.Bernoulli(0.13) })},
	} {
		var rk Ranked
		rk.Snapshot(tc.h)
		ranks := make([]int, 4096)
		for i := range ranks {
			ranks[i] = r.Intn(rk.Len())
		}
		b.Run(tc.name, func(b *testing.B) {
			sum := 0
			for i := 0; i < b.N; i++ {
				sum += rk.Select(ranks[i&4095])
			}
			if sum < 0 {
				b.Fatal("negative ids")
			}
		})
	}
}
