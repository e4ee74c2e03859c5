package query

import (
	"fmt"

	"tcast/internal/idset"
)

// Knowledge is the initiator's bookkeeping during a threshold-query
// session: which nodes might still be positive, how many positives have
// been identified outright, and the evidence gathered in the current round.
//
// Decision rules (generalizing Algorithm 1 lines 11 and 14):
//
//   - threshold REACHED when Confirmed + round lower bound ≥ t,
//   - threshold IMPOSSIBLE when Confirmed + |Candidates| < t.
//
// The round lower bound is the sum over this round's queried bins of the
// guaranteed positives each response implies (Active=1, Collision=2).
// Decoded responses instead increment Confirmed permanently, because the
// identified node is removed from the candidate set and keeps counting
// toward t in later rounds.
type Knowledge struct {
	// Candidates holds nodes whose predicate value is still unknown. The
	// hybrid set keeps the ledger representation-agnostic: dense bitset
	// words at paper scale, the sorted-slice form once a huge field has
	// been mostly eliminated (idset.Hybrid.Compact). Every operation the
	// ledger performs — membership, removal, cardinality, ascending
	// enumeration — costs the same or less in either form, so
	// UpperBound, Apply and Reset never branch on representation.
	Candidates *idset.Hybrid
	// Confirmed counts positives identified by 2+ decodes. Confirmed
	// nodes are no longer candidates.
	Confirmed int
	// Threshold is t, the query's threshold.
	Threshold int

	roundLB int
}

// NewKnowledge starts a session over participants {0..n-1} with
// threshold t. It panics if t < 0.
func NewKnowledge(n, t int) *Knowledge {
	k := &Knowledge{}
	k.Reset(n, t)
	return k
}

// Reset reinitializes the ledger for a fresh session over {0..n-1} with
// threshold t, recycling the candidate set's backing storage. Pooled trial
// state calls Reset between sessions instead of allocating a new ledger;
// the result is indistinguishable from NewKnowledge(n, t). It panics if
// t < 0.
func (k *Knowledge) Reset(n, t int) {
	if t < 0 {
		panic("query: negative threshold")
	}
	if k.Candidates == nil {
		k.Candidates = idset.FullHybrid(n)
	} else {
		// Reset re-targets whatever representation the last session left
		// behind — including a different field size in either direction —
		// and Fill lands it back in dense form.
		k.Candidates.Reset(n)
		k.Candidates.Fill()
	}
	k.Confirmed = 0
	k.Threshold = t
	k.roundLB = 0
}

// StartRound resets the per-round lower bound. Call at the top of each
// re-binning round.
func (k *Knowledge) StartRound() { k.roundLB = 0 }

// RoundLowerBound returns the guaranteed positive count among the bins
// queried so far in the current round, excluding Confirmed nodes.
func (k *Knowledge) RoundLowerBound() int { return k.roundLB }

// LowerBound returns the total guaranteed positive count: confirmed
// positives plus the current round's bin evidence.
func (k *Knowledge) LowerBound() int { return k.Confirmed + k.roundLB }

// UpperBound returns the largest x still possible: confirmed positives plus
// all remaining candidates.
func (k *Knowledge) UpperBound() int { return k.Confirmed + k.Candidates.Len() }

// Apply folds one bin's response into the ledger. traits tells Apply how
// much a Decoded response proves (see Traits.CaptureEffect).
func (k *Knowledge) Apply(bin []int, r Response, traits Traits) {
	switch r.Kind {
	case Empty:
		// Every node in a silent bin is negative (Alg 1 line 8).
		k.Candidates.RemoveIDs(bin)
	case Active:
		k.roundLB++
	case Collision:
		k.roundLB += 2
	case Decoded:
		if !k.Candidates.Contains(r.DecodedID) {
			// A decode naming a node that is not (or is no longer) a
			// candidate can only come from a corrupt frame on a faulted
			// substrate (the audit layer's corrupt_decode class). The
			// activity is real — some positive replied — but the
			// identity is not trustworthy, so count the response like
			// Active instead of confirming. Crediting Confirmed here
			// would double-count an already-confirmed node (or count a
			// proven negative), letting UpperBound grow past ground
			// truth and corrupting the decision.
			k.roundLB++
			return
		}
		k.Confirmed++
		k.Candidates.Remove(r.DecodedID)
		if r.MaxPositives(bin, traits) == 1 {
			// Without capture, a decode proves the bin had exactly
			// one replier: everyone else in the bin is negative. The
			// decoded node itself is already gone, so removing the
			// whole bin is the same.
			k.Candidates.RemoveIDs(bin)
		}
	default:
		panic(fmt.Sprintf("query: unknown response kind %v", r.Kind))
	}
}

// Decision reports whether the threshold question is resolved:
// (answer, true) once decided, (false, false) while still open.
func (k *Knowledge) Decision() (answer, decided bool) {
	if k.LowerBound() >= k.Threshold {
		return true, true
	}
	if k.UpperBound() < k.Threshold {
		return false, true
	}
	return false, false
}
