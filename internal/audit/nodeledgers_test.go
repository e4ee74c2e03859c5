package audit

import (
	"testing"

	"tcast/internal/energy"
	"tcast/internal/fastsim"
	"tcast/internal/query"
	"tcast/internal/rng"
)

func scriptedSession() *scripted {
	return &scripted{
		truth:  map[int]bool{0: true, 1: true, 2: true},
		traits: query.Traits{Model: query.OnePlus},
		resps: []query.Response{
			{Kind: query.Empty},
			{Kind: query.Active},
			{Kind: query.Active},
		},
	}
}

// TestSparseLedgerMatchesDense pins the sparse account to the dense
// semantics: At reports exactly the ledgers the old dense auditor built,
// and untouched nodes as zero ledgers.
func TestSparseLedgerMatchesDense(t *testing.T) {
	aud, err := New(scriptedSession(), Config{N: 6, T: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, bin := range [][]int{{0, 1}, {2, 3}, {4, 5}} {
		aud.Query(bin)
	}
	v := aud.Finish(false)

	wantDense := []energy.SlotLedger{
		{Rx: 1, Tx: 1}, {Rx: 1, Tx: 1}, {Rx: 1, Tx: 1},
		{Rx: 1, Idle: 1}, {Rx: 1, Idle: 1}, {Rx: 1, Idle: 1},
	}
	for id, want := range wantDense {
		if got := v.Nodes.At(id); got != want {
			t.Errorf("At(%d) = %+v, want %+v", id, got, want)
		}
	}
	if got := v.Nodes.At(99); got != (energy.SlotLedger{}) {
		t.Errorf("At(untouched) = %+v, want zero", got)
	}
}

// TestAuditorResetEquivalence: a Reset-recycled auditor must grade a
// session identically to a freshly constructed one — same verdict, same
// ledgers.
func TestAuditorResetEquivalence(t *testing.T) {
	run := func(a *Auditor) Verdict {
		for _, bin := range [][]int{{0, 1}, {2, 3}, {4, 5}} {
			a.Query(bin)
		}
		return a.Finish(false)
	}
	fresh, err := New(scriptedSession(), Config{N: 6, T: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := run(fresh)

	pooled, err := New(scriptedSession(), Config{N: 9, T: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Dirty the pooled auditor with a different-shaped session first.
	pooled.Query([]int{7, 8})
	pooled.Finish(true)
	if err := pooled.Reset(scriptedSession(), Config{N: 6, T: 2}); err != nil {
		t.Fatal(err)
	}
	got := run(pooled)
	if got.Decision != want.Decision || got.Truth != want.Truth || got.TrueX != want.TrueX ||
		got.Outcome != want.Outcome || got.CausalPoll != want.CausalPoll ||
		got.Polls != want.Polls || got.Classes != want.Classes ||
		got.Initiator != want.Initiator {
		t.Fatalf("recycled verdict differs:\n got %+v\nwant %+v", got, want)
	}
	// The recycled store sits at a later generation and may hold stale
	// slots from the dirty session, so compare observationally.
	for id := 0; id < 9; id++ {
		if g, w := got.Nodes.At(id), want.Nodes.At(id); g != w {
			t.Fatalf("recycled node %d ledger %+v, want %+v", id, g, w)
		}
	}
}

// TestTrueCountFastPath: a truth oracle exposing Positives() answers the
// true-x scan in O(1) — and is trusted over a per-id scan.
func TestTrueCountFastPath(t *testing.T) {
	r := rng.New(3)
	ch, _ := fastsim.RandomPositives(500, 42, fastsim.Config{Model: query.OnePlus}, r)
	aud, err := New(ch, Config{N: 500, T: 10})
	if err != nil {
		t.Fatal(err)
	}
	if aud.trueX != 42 {
		t.Fatalf("TrueX = %d, want 42", aud.trueX)
	}
	// The scripted substrate has no Positives method: the scan path.
	sc := scriptedSession()
	aud2, err := New(sc, Config{N: 6, T: 2})
	if err != nil {
		t.Fatal(err)
	}
	if aud2.trueX != 3 {
		t.Fatalf("scan TrueX = %d, want 3", aud2.trueX)
	}
}
