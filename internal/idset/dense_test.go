package idset

import (
	"slices"
	"testing"
	"testing/quick"

	"tcast/internal/rng"
)

// sameDense reports whether a and b hold the same members over the same
// universe, with consistent counts.
func sameDense(a, b *Dense) bool {
	return a.Cap() == b.Cap() && a.Len() == b.Len() && slices.Equal(a.Members(), b.Members())
}

// fullDense is a Dense over n ids holding all of them.
func fullDense(n int) *Dense {
	d := NewDense(n)
	d.Fill()
	return d
}

func TestNewEmpty(t *testing.T) {
	d := NewDense(100)
	if d.Len() != 0 || len(d.Members()) != 0 {
		t.Fatal("new set is not empty")
	}
	if d.Cap() != 100 {
		t.Fatalf("Cap = %d, want 100", d.Cap())
	}
}

func TestAddRemoveContains(t *testing.T) {
	d := NewDense(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if d.Contains(i) {
			t.Fatalf("empty set contains %d", i)
		}
		d.Add(i)
		if !d.Contains(i) {
			t.Fatalf("set missing %d after Add", i)
		}
	}
	if d.Len() != 8 {
		t.Fatalf("Len = %d, want 8", d.Len())
	}
	d.Add(63) // duplicate add must not change cardinality
	if d.Len() != 8 {
		t.Fatalf("Len after duplicate Add = %d, want 8", d.Len())
	}
	d.Remove(63)
	if d.Contains(63) || d.Len() != 7 {
		t.Fatal("Remove failed")
	}
	d.Remove(63) // duplicate remove is a no-op
	if d.Len() != 7 {
		t.Fatalf("Len after duplicate Remove = %d, want 7", d.Len())
	}
}

// TestFull: Fill on a new set holds exactly the universe, with the last
// word trimmed at n.
func TestFull(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 200} {
		d := fullDense(n)
		if d.Len() != n || len(d.Members()) != n {
			t.Fatalf("Fill over %d: Len %d, %d members", n, d.Len(), len(d.Members()))
		}
		for i := 0; i < n; i++ {
			if !d.Contains(i) {
				t.Fatalf("Fill over %d missing %d", n, i)
			}
		}
		if d.Contains(n) || d.Contains(-1) {
			t.Fatal("Contains out-of-range returned true")
		}
	}
}

func TestMembersSorted(t *testing.T) {
	d := NewDense(300)
	for _, i := range []int{250, 3, 64, 9, 128} {
		d.Add(i)
	}
	if got, want := d.Members(), []int{3, 9, 64, 128, 250}; !slices.Equal(got, want) {
		t.Fatalf("Members = %v, want %v", got, want)
	}
}

// TestEqual: identical, differing and empty sets, and empty sets over
// different universes, on the dense form of Hybrid.Equal.
func TestEqual(t *testing.T) {
	a, b := NewHybrid(64), NewHybrid(64)
	if !a.Equal(b) {
		t.Fatal("two empty sets not equal")
	}
	a.Add(3)
	if a.Equal(b) {
		t.Fatal("sets with different members equal")
	}
	b.Add(3)
	if !a.Equal(b) {
		t.Fatal("identical sets not equal")
	}
	if a.Equal(NewHybrid(65)) {
		t.Fatal("sets with different capacity equal")
	}
}

func TestQuickResetMatchesNew(t *testing.T) {
	f := func(seed uint64, n1Raw, n2Raw uint8) bool {
		n1, n2 := int(n1Raw), int(n2Raw)
		r := rng.New(seed)
		d := NewDense(n1)
		for i := 0; i < n1; i++ {
			if r.Bernoulli(0.5) {
				d.Add(i)
			}
		}
		d.Reset(n2)
		for i := 0; i < n2; i++ {
			if d.Contains(i) {
				return false
			}
		}
		return sameDense(d, NewDense(n2))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestResetThenFillMatchesFull(t *testing.T) {
	d := NewDense(130)
	for _, i := range []int{0, 63, 64, 129} {
		d.Add(i)
	}
	for _, n := range []int{130, 7, 200, 0, 64} {
		d.Reset(n)
		d.Fill()
		if !sameDense(d, fullDense(n)) {
			t.Fatalf("Reset(%d)+Fill != a new set over %d filled", n, n)
		}
	}
}

// TestMarkMatchesAdd: Mark sets exactly the bits Add would, duplicates
// and the universe's last id included, over a reused set.
func TestMarkMatchesAdd(t *testing.T) {
	r := rng.New(5)
	marked := new(Dense)
	for _, n := range []int{1, 63, 64, 65, 130, 4096} {
		ids := []int{n - 1, 0, n - 1}
		for i := 0; i < n/3; i++ {
			ids = append(ids, r.Intn(n))
		}
		added := NewDense(n)
		for _, id := range ids {
			added.Add(id)
		}
		marked.Reset(n)
		marked.Mark(ids)
		if !slices.Equal(marked.Members(), added.Members()) {
			t.Fatalf("n=%d: Mark set %v, Add %v", n, marked.Members(), added.Members())
		}
	}
}
