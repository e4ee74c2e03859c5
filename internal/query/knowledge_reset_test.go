package query

import (
	"testing"

	"tcast/internal/idset"
)

// applySomeHistory dirties a ledger the way a real session does: decodes,
// eliminations, round evidence.
func applySomeHistory(t *testing.T, k *Knowledge) {
	t.Helper()
	n := k.Candidates.Cap()
	traits := Traits{Model: TwoPlus, CaptureEffect: true}
	k.StartRound()
	k.Apply([]int{0, 1 % n}, Response{Kind: Decoded, DecodedID: 0}, traits)
	if n > 3 {
		k.Apply([]int{2, 3}, Response{Kind: Empty}, traits)
	}
	k.Apply([]int{n - 1}, Response{Kind: Collision}, traits)
}

// equalKnowledge checks k against a freshly built ledger in every
// observable: bounds, decision state, and exact candidate membership.
func equalKnowledge(t *testing.T, k *Knowledge, n, threshold int) {
	t.Helper()
	fresh := NewKnowledge(n, threshold)
	if k.Confirmed != fresh.Confirmed || k.Threshold != fresh.Threshold ||
		k.roundLB != fresh.roundLB {
		t.Fatalf("reset ledger scalars diverge: %+v vs fresh %+v", k, fresh)
	}
	if k.UpperBound() != fresh.UpperBound() || k.LowerBound() != fresh.LowerBound() {
		t.Fatalf("reset bounds diverge: [%d,%d] vs fresh [%d,%d]",
			k.LowerBound(), k.UpperBound(), fresh.LowerBound(), fresh.UpperBound())
	}
	if !k.Candidates.Equal(fresh.Candidates) {
		t.Fatalf("reset candidates (cap %d, len %d) differ from fresh full set over %d",
			k.Candidates.Cap(), k.Candidates.Len(), n)
	}
}

// TestResetAcrossFieldSizes pins the pooled-session contract for
// populations that change between sessions: growing and shrinking n —
// including across the sparse cutover in both directions — must leave
// the ledger indistinguishable from NewKnowledge at the new size.
func TestResetAcrossFieldSizes(t *testing.T) {
	sizes := []int{64, 1024, 64, idset.SparseCutover + 100, 128, idset.SparseCutover * 2, idset.SparseCutover, 16}
	k := NewKnowledge(sizes[0], 3)
	for _, n := range sizes {
		k.Reset(n, 3)
		equalKnowledge(t, k, n, 3)
		applySomeHistory(t, k)
	}
}

// TestResetFromSparseForm: a pooled ledger whose previous session ended
// in the compacted sparse form must reset cleanly to any size, dense
// form, full membership.
func TestResetFromSparseForm(t *testing.T) {
	n := idset.SparseCutover
	k := NewKnowledge(n, 2)
	for id := 0; id < n; id++ {
		if id%2000 != 0 {
			k.Candidates.Remove(id)
		}
	}
	if !k.Candidates.Compact() {
		t.Fatal("setup: candidate set did not compact")
	}
	for _, next := range []int{n, 256, n * 4} {
		k.Reset(next, 5)
		if k.Candidates.Compact() {
			t.Fatalf("reset to n=%d left sparse form", next)
		}
		equalKnowledge(t, k, next, 5)
	}
}

// TestResetShrinkDropsStaleMembers: after shrinking, no id from the old
// larger field may survive, and out-of-range probes must simply report
// absent.
func TestResetShrinkDropsStaleMembers(t *testing.T) {
	k := NewKnowledge(1000, 3)
	k.Reset(10, 3)
	if k.Candidates.Len() != 10 || k.UpperBound() != 10 {
		t.Fatalf("shrunk ledger: len=%d ub=%d", k.Candidates.Len(), k.UpperBound())
	}
	if k.Candidates.Contains(500) {
		t.Fatal("stale member above the new capacity")
	}
	// The shrunk session must behave normally end to end.
	traits := Traits{Model: OnePlus}
	k.StartRound()
	k.Apply([]int{0, 1, 2, 3, 4, 5, 6, 7}, Response{Kind: Empty}, traits)
	if answer, decided := k.Decision(); !decided || answer {
		t.Fatalf("8 eliminations of 10 with t=3: decision=%v,%v", answer, decided)
	}
}
