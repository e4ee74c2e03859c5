package core

import (
	"math"

	"tcast/internal/binning"
	"tcast/internal/query"
	"tcast/internal/rng"
)

// OptimalBins returns the bin count that maximizes the expected number of
// eliminated nodes per query given the estimate p of positive nodes:
// b = p + 1 (equation 4). The derivation maximizes
// g(b) = (1 - 1/b)^p · n/b, the empty-bin probability times the expected
// bin size.
func OptimalBins(p float64) float64 {
	if p < 0 {
		p = 0
	}
	return p + 1
}

// EstimatePositives inverts the expected empty-bin count to update the
// estimate of x (equation 6):
//
//	p = (log e − log b) / log(1 − 1/b)
//
// where e is the number of empty bins observed among b queried bins.
// The published formula is undefined at the boundaries, so (as documented
// in DESIGN.md) e is clamped to [0.5, b−0.5] before inversion and the
// result to [0, maxP]; for b <= 1 the formula is degenerate and the
// function returns maxP (no information, assume the worst).
func EstimatePositives(emptyBins, queriedBins int, maxP float64) float64 {
	if queriedBins <= 1 {
		return maxP
	}
	b := float64(queriedBins)
	e := float64(emptyBins)
	if e < 0.5 {
		e = 0.5
	}
	if e > b-0.5 {
		e = b - 0.5
	}
	p := (math.Log(e) - math.Log(b)) / math.Log(1-1/b)
	if p < 0 {
		p = 0
	}
	if p > maxP {
		p = maxP
	}
	return p
}

// ABNS is Algorithm 3, Adaptive Bin Number Selection: each round uses
// b = p + 1 bins where p is the running estimate of the number of positive
// nodes, initialized to P0 and re-estimated from the observed empty-bin
// count after every round (equation 6).
type ABNS struct {
	// P0 is the initial estimate p₀ as a multiple of t; the paper
	// evaluates P0 = 1 (p₀ = t) and P0 = 2 (p₀ = 2t). Zero means 2.
	P0 float64
}

// Name implements Algorithm.
func (a ABNS) Name() string {
	switch a.p0Mult() {
	case 1:
		return "ABNS(p0=t)"
	case 2:
		return "ABNS(p0=2t)"
	default:
		return "ABNS"
	}
}

func (a ABNS) p0Mult() float64 {
	if a.P0 == 0 {
		return 2
	}
	return a.P0
}

// Run implements Algorithm.
func (a ABNS) Run(q query.Querier, n, t int, r *rng.Source) (Result, error) {
	return a.RunIn(nil, q, n, t, r)
}

// RunIn implements ArenaRunner: Run with pooled session state.
func (a ABNS) RunIn(ar *Arena, q query.Querier, n, t int, r *rng.Source) (Result, error) {
	if err := validate(n, t); err != nil {
		return Result{}, err
	}
	s := newSession(ar, q, n, t, r)
	return a.runSession(s, a.p0Mult()*float64(t))
}

// runSession drives Algorithm 3 over an existing session with the given
// initial estimate p0; Probabilistic ABNS reuses it after its probe query.
func (a ABNS) runSession(s *session, p0 float64) (Result, error) {
	p := p0
	return s.runWithPolicy(func(round int, prev roundOutcome) int {
		if round > 1 {
			maxP := float64(s.k.Candidates.Len())
			if prev.emptyBins == 0 {
				// No bin emptied: equation 6 blows up at e = 0, and
				// the true x is likely well above the estimate.
				// Grow the estimate geometrically (DESIGN.md).
				p = math.Min(math.Max(2*p, p+1), maxP)
			} else {
				p = EstimatePositives(prev.emptyBins, prev.queried, maxP)
			}
		}
		return int(math.Round(OptimalBins(p)))
	})
}

// ProbABNS is the probabilistic ABNS of Section V-D: a single sampling
// probe estimates which side of t/2 the unknown x falls on. Each candidate
// joins the probe bin independently with probability 2/t; a silent probe
// implies x < t/2 with high probability, so ABNS starts with the small
// estimate p₀ = t/4, while a non-empty probe hands the session to plain
// 2tBins, which is near-oracle for x > t/2.
type ProbABNS struct{}

// Name implements Algorithm.
func (a ProbABNS) Name() string { return "ProbABNS" }

// Run implements Algorithm.
func (a ProbABNS) Run(q query.Querier, n, t int, r *rng.Source) (Result, error) {
	return a.RunIn(nil, q, n, t, r)
}

// RunIn implements ArenaRunner: Run with pooled session state.
func (a ProbABNS) RunIn(ar *Arena, q query.Querier, n, t int, r *rng.Source) (Result, error) {
	if err := validate(n, t); err != nil {
		return Result{}, err
	}
	s := newSession(ar, q, n, t, r)
	if _, decided := s.decision(); decided {
		return s.finish(), nil
	}
	// Probe: one probabilistic bin with q = 2/t. For t <= 2 the probe
	// would include (almost) everyone and teach us nothing; skip straight
	// to 2tBins in that case. Members and probe land in the session's
	// reused buffers; the Bernoulli draws match a loop of Bernoulli(2/t) over the members.
	if t > 2 {
		s.scratch = s.k.Candidates.AppendMembers(s.scratch[:0])
		probe := binning.AppendProbabilisticBin(s.probeBuf[:0], s.scratch, 2/float64(t), s.r)
		s.probeBuf = probe
		if len(probe) > 0 {
			resp, decided := s.queryBin(probe)
			if decided {
				return s.finish(), nil
			}
			if resp.Kind == query.Empty {
				// Likely x < t/2: run ABNS from p0 = t/4.
				return ABNS{}.runSession(s, float64(t)/4)
			}
		}
	}
	// Likely x > t/2 (or no usable probe): 2tBins is consistently close
	// to the oracle in this regime.
	return s.runWithPolicy(func(round int, prev roundOutcome) int { return 2 * t })
}
