package core

import (
	"tcast/internal/query"
	"tcast/internal/rng"
)

// TwoTBins is Algorithm 1: every round the remaining candidates are split
// into 2t equal-sized random bins and polled in order. Silent bins are
// discarded; the round guarantees either t non-empty bins (threshold
// reached) or at least t silent bins (candidate set at least halved), so
// the query cost is bounded by 2t·log(N/2t) in the worst case.
type TwoTBins struct{}

// Name implements Algorithm.
func (a TwoTBins) Name() string { return "2tBins" }

// Run implements Algorithm.
func (a TwoTBins) Run(q query.Querier, n, t int, r *rng.Source) (Result, error) {
	return a.RunIn(nil, q, n, t, r)
}

// RunIn implements ArenaRunner: Run with pooled session state.
func (a TwoTBins) RunIn(ar *Arena, q query.Querier, n, t int, r *rng.Source) (Result, error) {
	if err := validate(n, t); err != nil {
		return Result{}, err
	}
	s := newSession(ar, q, n, t, r)
	return s.runWithPolicy(func(round int, prev roundOutcome) int {
		return 2 * t
	})
}

// ExpVariant selects the growth rule of the Exponential Increase
// algorithm.
type ExpVariant int

const (
	// ExpDouble is Algorithm 2 as published: binNum starts at 2 and
	// doubles every round.
	ExpDouble ExpVariant = iota
	// ExpPauseAndContinue is the paper's first ablation: the bin count
	// does not double in rounds that eliminated a significant fraction
	// of candidates ("pause"), and doubles otherwise.
	ExpPauseAndContinue
	// ExpFourfold is the paper's second ablation: grow four-fold instead
	// of two-fold after a round in which every polled bin was non-empty.
	ExpFourfold
)

// String implements fmt.Stringer.
func (v ExpVariant) String() string {
	switch v {
	case ExpDouble:
		return "double"
	case ExpPauseAndContinue:
		return "pause-and-continue"
	case ExpFourfold:
		return "fourfold"
	default:
		return "unknown"
	}
}

// ExpIncrease is Algorithm 2: start with two bins to discard large
// negative populations quickly (good when x << t) and double the bin count
// each round so the x >> t case is also handled. The paper's two
// experimental variants are selectable for ablation; Section IV-B reports
// "neither of them gave a consistent improvement".
type ExpIncrease struct {
	Variant ExpVariant
}

// pauseFraction is the candidate-elimination fraction above which the
// pause-and-continue variant keeps the current bin count: at least half
// the candidates eliminated.
const pauseFraction = 0.5

// Name implements Algorithm.
func (a ExpIncrease) Name() string {
	if a.Variant == ExpDouble {
		return "ExpIncrease"
	}
	return "ExpIncrease(" + a.Variant.String() + ")"
}

// Run implements Algorithm.
func (a ExpIncrease) Run(q query.Querier, n, t int, r *rng.Source) (Result, error) {
	return a.RunIn(nil, q, n, t, r)
}

// RunIn implements ArenaRunner: Run with pooled session state.
func (a ExpIncrease) RunIn(ar *Arena, q query.Querier, n, t int, r *rng.Source) (Result, error) {
	if err := validate(n, t); err != nil {
		return Result{}, err
	}
	s := newSession(ar, q, n, t, r)
	binNum := 2
	candidatesBefore := n
	return s.runWithPolicy(func(round int, prev roundOutcome) int {
		if round == 1 {
			return binNum
		}
		switch a.Variant {
		case ExpPauseAndContinue:
			now := s.k.Candidates.Len()
			eliminated := candidatesBefore - now
			if float64(eliminated) < pauseFraction*float64(candidatesBefore) {
				binNum *= 2
			}
			candidatesBefore = now
		case ExpFourfold:
			if prev.emptyBins == 0 {
				binNum *= 4
			} else {
				binNum *= 2
			}
		default:
			binNum *= 2
		}
		return binNum
	})
}
