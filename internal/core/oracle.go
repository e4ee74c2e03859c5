package core

import (
	"math"

	"tcast/internal/query"
	"tcast/internal/rng"
)

// GroundTruth exposes the true predicate value of each node. Only the
// Oracle algorithm consults it — real initiators cannot — which is exactly
// why the oracle is the lower bound the paper benchmarks ABNS against.
type GroundTruth interface {
	IsPositive(id int) bool
}

// OracleBins returns the Section V-C bin count for known x:
//
//	b = x+1                      if x <= t/2
//	b = 3x-t                     if t/2 < x <= t
//	b = t·(1 + (n-x)/(n-t+1))    if x > t
//
// interpolating the three optimal regimes (x small: eq 4; x ≈ t: 2t bins;
// x = n: t bins).
func OracleBins(n, t, x int) float64 {
	fn, ft, fx := float64(n), float64(t), float64(x)
	switch {
	case fx <= ft/2:
		return fx + 1
	case fx <= ft:
		return 3*fx - ft
	default:
		return ft * (1 + (fn-fx)/(fn-ft+1))
	}
}

// Oracle runs tcast rounds with the bin count computed from the true
// number of positives (re-evaluated every round over the surviving
// candidates). It gives the lower bound on query cost that Figures 5 and 6
// plot. Truth must describe the same ground truth the Querier answers
// from.
type Oracle struct {
	Truth GroundTruth
}

// Name implements Algorithm.
func (a Oracle) Name() string { return "Oracle" }

// Run implements Algorithm.
func (a Oracle) Run(q query.Querier, n, t int, r *rng.Source) (Result, error) {
	return a.RunIn(nil, q, n, t, r)
}

// RunIn implements ArenaRunner: Run with pooled session state.
func (a Oracle) RunIn(ar *Arena, q query.Querier, n, t int, r *rng.Source) (Result, error) {
	if err := validate(n, t); err != nil {
		return Result{}, err
	}
	s := newSession(ar, q, n, t, r)
	return s.runWithPolicy(func(round int, prev roundOutcome) int {
		// Count the positives still hiding among the candidates and
		// the threshold still to be proven. The members land in the
		// session's scratch buffer so the count allocates nothing.
		x := 0
		s.scratch = s.k.Candidates.AppendMembers(s.scratch[:0])
		for _, id := range s.scratch {
			if a.Truth.IsPositive(id) {
				x++
			}
		}
		nRem := s.k.Candidates.Len()
		tRem := t - s.k.Confirmed
		if tRem < 1 {
			tRem = 1
		}
		return int(math.Round(OracleBins(nRem, tRem, x)))
	})
}
