package trace

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// emitTrial writes one synthetic trial span tree (trial → session → two
// polls) into b, advancing the clock by 3 slots total.
func emitTrial(b *Builder, i int) {
	tr := b.Begin(KindTrial, fmt.Sprintf("trial %d", i))
	tr.SetAttr(IntAttr("i", i))
	b.Begin(KindSession, "alg")
	b.Begin(KindPoll, "poll 0")
	b.Advance(1)
	b.End()
	b.Begin(KindPoll, "poll 1")
	b.Advance(2)
	b.End()
	b.End()
	b.End()
}

// TestGraftMatchesSerialEmission is the fork/graft acceptance test: a
// batch of trials recorded into forks (registered in any order) and
// grafted must encode to the same bytes as serial emission in index order.
func TestGraftMatchesSerialEmission(t *testing.T) {
	const trials = 7
	serial := NewBuilder()
	serial.Begin(KindPoint, "x=1")
	for i := 0; i < trials; i++ {
		emitTrial(serial, i)
	}
	serial.End()
	want, err := encodeBytes(serial.Trace())
	if err != nil {
		t.Fatal(err)
	}

	forked := NewBuilder()
	forked.Begin(KindPoint, "x=1")
	// Register and emit in scrambled order, as a racing pool would.
	for _, i := range []int{3, 0, 6, 1, 5, 2, 4} {
		emitTrial(forked.Fork(i), i)
	}
	forked.Graft()
	forked.End()
	got, err := encodeBytes(forked.Trace())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("grafted trace differs from serial emission:\n--- serial ---\n%s--- grafted ---\n%s", want, got)
	}
}

// TestGraftRebasesClock: after grafting, the parent clock must have
// advanced by the sum of the forks' elapsed time, so later serial spans
// start where the batch ended.
func TestGraftRebasesClock(t *testing.T) {
	b := NewBuilder()
	for i := 0; i < 4; i++ {
		emitTrial(b.Fork(i), i) // each trial spans 3 slots
	}
	b.Graft()
	if b.now != 12 {
		t.Fatalf("clock after graft = %d, want 12", b.now)
	}
	tr := b.Trace()
	if len(tr.Roots) != 4 {
		t.Fatalf("roots = %d, want 4", len(tr.Roots))
	}
	if tr.Roots[3].Start != 9 || tr.Roots[3].End != 12 {
		t.Fatalf("last trial spans [%d,%d), want [9,12)", tr.Roots[3].Start, tr.Roots[3].End)
	}
}

// TestForkConcurrent registers forks from many goroutines (run under
// -race) and checks the graft still lands in index order.
func TestForkConcurrent(t *testing.T) {
	const trials = 64
	b := NewBuilder()
	b.Begin(KindPoint, "x=0")
	var wg sync.WaitGroup
	for i := 0; i < trials; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			emitTrial(b.Fork(i), i)
		}(i)
	}
	wg.Wait()
	b.Graft()
	b.End()
	point := b.Trace().Roots[0]
	if len(point.Children) != trials {
		t.Fatalf("grafted %d trials, want %d", len(point.Children), trials)
	}
	for i, c := range point.Children {
		if want := fmt.Sprintf("trial %d", i); c.Name != want {
			t.Fatalf("child %d is %q, want %q", i, c.Name, want)
		}
	}
}

func TestForkDuplicateIndexPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Fork index did not panic")
		}
	}()
	b := NewBuilder()
	b.Fork(2)
	b.Fork(2)
}

func TestGraftUnbalancedForkPanics(t *testing.T) {
	b := NewBuilder()
	f := b.Fork(0)
	f.Begin(KindTrial, "trial 0") // never ended
	defer func() {
		if recover() == nil {
			t.Fatal("grafting an unbalanced fork did not panic")
		}
	}()
	b.Graft()
}

func TestDropForks(t *testing.T) {
	b := NewBuilder()
	emitTrial(b.Fork(0), 0)
	emitTrial(b.Fork(1), 1)
	if n := b.PendingForks(); n != 2 {
		t.Fatalf("pending = %d, want 2", n)
	}
	b.DropForks()
	if n := b.PendingForks(); n != 0 {
		t.Fatalf("pending after drop = %d, want 0", n)
	}
	if b.now != 0 || len(b.Trace().Roots) != 0 {
		t.Fatal("dropped forks leaked into the trace")
	}
}

// encodeBytes renders a trace to a byte slice through Encode.
func encodeBytes(tr *Trace) ([]byte, error) {
	var buf bytes.Buffer
	err := Encode(&buf, tr)
	return buf.Bytes(), err
}
