package query

import (
	"testing"
	"testing/quick"

	"tcast/internal/rng"
)

// A decode naming a node that is not (or is no longer) a candidate can only
// come from a corrupt frame. The ledger must count the activity like Active
// instead of crediting Confirmed: double-crediting an already-confirmed node
// lets UpperBound grow past ground truth.
func TestApplyCorruptDecodeDoesNotDoubleConfirm(t *testing.T) {
	k := NewKnowledge(8, 3)
	traits := Traits{Model: TwoPlus, CaptureEffect: true}

	k.StartRound()
	k.Apply([]int{5, 6}, Response{Kind: Decoded, DecodedID: 5}, traits)
	if k.Confirmed != 1 || k.Candidates.Contains(5) {
		t.Fatalf("after genuine decode: Confirmed=%d, Contains(5)=%v", k.Confirmed, k.Candidates.Contains(5))
	}
	ub := k.UpperBound()
	lb := k.LowerBound()

	// Corrupt frame: the same ID decoded again, though it is no longer a
	// candidate.
	k.Apply([]int{3, 4}, Response{Kind: Decoded, DecodedID: 5}, traits)
	if k.Confirmed != 1 {
		t.Errorf("corrupt decode re-credited Confirmed: got %d, want 1", k.Confirmed)
	}
	if got := k.UpperBound(); got > ub {
		t.Errorf("UpperBound grew across corrupt decode: %d -> %d", ub, got)
	}
	if got := k.LowerBound(); got != lb+1 {
		t.Errorf("corrupt decode should count like Active: LowerBound %d -> %d, want %d", lb, got, lb+1)
	}
}

func TestApplyCorruptDecodeOfEliminatedNode(t *testing.T) {
	k := NewKnowledge(8, 3)
	traits := Traits{Model: TwoPlus, CaptureEffect: true}

	k.StartRound()
	// Bin {0,1} is silent: both proven negative.
	k.Apply([]int{0, 1}, Response{Kind: Empty}, traits)
	ub := k.UpperBound()

	// Corrupt frame names the proven-negative node 0.
	k.Apply([]int{2, 3}, Response{Kind: Decoded, DecodedID: 0}, traits)
	if k.Confirmed != 0 {
		t.Errorf("corrupt decode confirmed a proven negative: Confirmed=%d", k.Confirmed)
	}
	if got := k.UpperBound(); got > ub {
		t.Errorf("UpperBound grew across corrupt decode: %d -> %d", ub, got)
	}
	if k.roundLB != 1 {
		t.Errorf("RoundLowerBound = %d, want 1 (counted like Active)", k.roundLB)
	}
}

// Reset must be indistinguishable from NewKnowledge, whatever state the
// recycled ledger carried, including a shrunk or grown population.
func TestQuickResetMatchesNewKnowledge(t *testing.T) {
	f := func(n1Raw, n2Raw, tRaw uint8, confirm []uint8) bool {
		n1, n2 := int(n1Raw%200), int(n2Raw%200)
		thr := int(tRaw % 50)
		k := NewKnowledge(n1, thr)
		k.StartRound()
		for _, c := range confirm {
			if n1 == 0 {
				break
			}
			id := int(c) % n1
			k.Apply([]int{id}, Response{Kind: Decoded, DecodedID: id}, Traits{Model: TwoPlus, CaptureEffect: true})
		}
		k.Reset(n2, thr)
		fresh := NewKnowledge(n2, thr)
		if k.Confirmed != fresh.Confirmed || k.Threshold != fresh.Threshold ||
			k.roundLB != fresh.roundLB {
			return false
		}
		return k.Candidates.Equal(fresh.Candidates)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestApplyDeferredMatchesApply: a round folded with ApplyDeferred must
// give the same bounds and decision as Apply after every bin, and once
// the dropped bins are removed and Settled, the same candidate set.
func TestApplyDeferredMatchesApply(t *testing.T) {
	const n, bins = 64, 16
	kinds := []Kind{Empty, Active, Collision, Decoded}
	for _, traits := range []Traits{{Model: TwoPlus, CaptureEffect: true}, {Model: TwoPlus}} {
		for seed := uint64(0); seed < 20; seed++ {
			r := rng.New(seed)
			eager, lazy := NewKnowledge(n, 40), NewKnowledge(n, 40)
			eager.StartRound()
			lazy.StartRound()
			var dropped [][]int
			for i := 0; i < bins; i++ {
				bin := make([]int, 0, n/bins)
				for id := i; id < n; id += bins {
					bin = append(bin, id)
				}
				resp := Response{Kind: kinds[r.Intn(len(kinds))], DecodedID: bin[r.Intn(len(bin))]}
				eager.Apply(bin, resp, traits)
				if lazy.ApplyDeferred(len(bin), resp, traits) {
					dropped = append(dropped, bin)
				}
				if eager.UpperBound() != lazy.UpperBound() || eager.LowerBound() != lazy.LowerBound() || eager.Confirmed != lazy.Confirmed {
					t.Fatalf("seed %d bin %d (%v): eager [%d, %d] confirmed %d, deferred [%d, %d] confirmed %d", seed, i, resp.Kind,
						eager.LowerBound(), eager.UpperBound(), eager.Confirmed, lazy.LowerBound(), lazy.UpperBound(), lazy.Confirmed)
				}
			}
			for _, bin := range dropped {
				lazy.Candidates.RemoveIDs(bin)
			}
			lazy.Settled()
			if !eager.Candidates.Equal(lazy.Candidates) || eager.UpperBound() != lazy.UpperBound() {
				t.Fatalf("seed %d: settled candidates differ from Apply's", seed)
			}
			lazy.StartRound() // settled: no panic
		}
	}
}

func TestStartRoundPanicsWhileUnsettled(t *testing.T) {
	k := NewKnowledge(8, 3)
	k.StartRound()
	k.ApplyDeferred(4, Response{Kind: Empty}, Traits{Model: OnePlus})
	defer func() {
		if recover() == nil {
			t.Fatal("StartRound with an unsettled deferred bin did not panic")
		}
	}()
	k.StartRound()
}
