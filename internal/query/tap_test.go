package query

import (
	"fmt"
	"testing"
)

// logObserver records what a Tap shows it into a shared log.
type logObserver struct {
	name string
	log  *[]string
}

func (o *logObserver) OnPoll(poll int, bin []int, resp Response) {
	*o.log = append(*o.log, fmt.Sprintf("%s poll %d bin %d %v", o.name, poll, len(bin), resp.Kind))
}

func (o *logObserver) OnRound(round int) {
	*o.log = append(*o.log, fmt.Sprintf("%s round %d", o.name, round))
}

// roundQ logs the round hook reaching the querier below the Tap.
type roundQ struct {
	scriptedQ
	log *[]string
}

func (r *roundQ) TraceRound(round int) {
	*r.log = append(*r.log, fmt.Sprintf("below round %d", round))
}

// TestTapCallsObserversInOrder: each poll reaches the observers in order
// after the querier below answered it, numbered from 0 at Reset, and a
// round boundary reaches them before it travels down the chain.
func TestTapCallsObserversInOrder(t *testing.T) {
	var log []string
	below := &roundQ{scriptedQ: scriptedQ{script: []Kind{Empty, Collision, Active}}, log: &log}
	tap := NewTap(below, &logObserver{"a", &log}, &logObserver{"b", &log})
	tap.TraceRound(1)
	for _, bin := range [][]int{{1, 2}, {3}, {4, 5, 6}} {
		tap.Query(bin)
	}
	want := []string{
		"a round 1", "b round 1", "below round 1",
		"a poll 0 bin 2 empty", "b poll 0 bin 2 empty",
		"a poll 1 bin 1 collision", "b poll 1 bin 1 collision",
		"a poll 2 bin 3 active", "b poll 2 bin 3 active",
	}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("log:\n%q\nwant:\n%q", log, want)
	}
	if tap.Polls() != 3 || tap.Nodes() != 6 {
		t.Fatalf("totals polls=%d nodes=%d, want 3/6", tap.Polls(), tap.Nodes())
	}
	tap.Reset(below, &logObserver{"c", &log})
	log = log[:0]
	tap.Query([]int{7})
	if tap.Polls() != 1 || tap.Nodes() != 1 || len(log) != 1 || log[0] != "c poll 0 bin 1 active" {
		t.Fatalf("after Reset: polls=%d nodes=%d log=%q", tap.Polls(), tap.Nodes(), log)
	}
}

// countObserver counts polls without allocating.
type countObserver struct{ polls, rounds int }

func (c *countObserver) OnPoll(int, []int, Response) { c.polls++ }
func (c *countObserver) OnRound(int)                 { c.rounds++ }

// TestTapAllocationFree: the per-poll path and a Reset that reuses the
// observer slice allocate nothing.
func TestTapAllocationFree(t *testing.T) {
	below := &scriptedQ{}
	var a, b countObserver
	var tap Tap
	bin := []int{1, 2, 3}
	allocs := testing.AllocsPerRun(100, func() {
		tap.Reset(below, &a, &b)
		tap.TraceRound(1)
		tap.Query(bin)
	})
	if allocs != 0 {
		t.Fatalf("%v allocs per reset and poll, want 0", allocs)
	}
	if a.polls == 0 || a.polls != b.polls || a.rounds != b.rounds {
		t.Fatalf("observers saw polls %d/%d rounds %d/%d", a.polls, b.polls, a.rounds, b.rounds)
	}
}

// embeddingQ is a layer that keeps its own querier type by embedding a
// Tap, as audit.Auditor does.
type embeddingQ struct {
	Tap
}

// TestLayersAndSlotMeter: Layers shows a Tap's observers, whether the Tap
// is the querier or embedded in it, in place of the Tap, and SlotMeter
// sees through Taps to the outermost meter.
func TestLayersAndSlotMeter(t *testing.T) {
	sub := &meteredQ{}
	var a, b countObserver
	e := &embeddingQ{}
	e.Tap.Reset(sub, &b)
	mid := &passthroughQ{q: e}
	outer := NewTap(mid, &a)
	var got []string
	Layers(outer, func(l any, tp *Tap) bool {
		switch {
		case l == &a && tp == outer:
			got = append(got, "a")
		case l == &b && tp == &e.Tap:
			got = append(got, "b")
		case l == mid && tp == nil:
			got = append(got, "mid")
		case l == sub && tp == nil:
			got = append(got, "sub")
		default:
			got = append(got, fmt.Sprintf("%T", l))
		}
		return true
	})
	if fmt.Sprint(got) != "[a mid b sub]" {
		t.Fatalf("layers %v, want [a mid b sub]", got)
	}
	n := 0
	Layers(outer, func(any, *Tap) bool { n++; return false })
	if n != 1 {
		t.Fatalf("Layers visited %d layers after visit returned false, want 1", n)
	}
	if m, ok := SlotMeter(outer).(*meteredQ); !ok || m != sub {
		t.Fatal("SlotMeter did not find the substrate meter through the Taps")
	}
	if SlotMeter(&scriptedQ{}) != nil {
		t.Fatal("SlotMeter invented a meter")
	}
	outer.Query([]int{1})
	if got := SlotMeter(outer).Slots(); got != 3 {
		t.Fatalf("metered slots = %d, want 3", got)
	}
}
