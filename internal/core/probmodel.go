package core

import (
	"fmt"
	"math"

	"tcast/internal/binning"
	"tcast/internal/query"
	"tcast/internal/rng"
)

// This file implements the Section VI probabilistic model: when the
// positive count x follows a bimodal distribution (quiet mode near μ1,
// activity mode near μ2), repeated probabilistic sampling bins answer the
// threshold question with high probability in O(1) queries, independent of
// n, x and t.

// BinNonEmptyProb returns 1 − (1 − 1/b)^x, the probability that a
// sampling bin (each node included with probability 1/b) is non-empty when
// x nodes are positive (Section V-A / equations 7a-7b).
func BinNonEmptyProb(b float64, x float64) float64 {
	if b <= 1 {
		return 1
	}
	if x <= 0 {
		return 0
	}
	return 1 - math.Pow(1-1/b, x)
}

// OptimalSamplingBins returns the b that maximizes the per-query gap
// p_r − p_l = (1−1/b)^tl − (1−1/b)^tr between the quiet and active
// hypotheses. Setting the derivative to zero gives the closed form
// u^(tr−tl) = tl/tr with u = 1 − 1/b. For tl <= 0 any non-empty bin
// already proves activity, so b = 1 (sample everyone).
func OptimalSamplingBins(tl, tr float64) float64 {
	if tr <= tl {
		panic(fmt.Sprintf("core: boundaries not separated: tl=%v tr=%v", tl, tr))
	}
	if tl <= 0 {
		return 1
	}
	u := math.Pow(tl/tr, 1/(tr-tl))
	return 1 / (1 - u)
}

// RequiredRepeatsPaper returns the repeat count r from equation 10 as
// printed, r ≥ 2·log(1/δ)/(ε·log 2e), where ε is the per-query decision
// tolerance (half the gap between the two hypotheses' non-empty
// probabilities). The ratio of logarithms is base-independent.
func RequiredRepeatsPaper(delta, eps float64) int {
	if delta <= 0 || delta >= 1 || eps <= 0 {
		panic(fmt.Sprintf("core: invalid delta=%v or eps=%v", delta, eps))
	}
	r := 2 * math.Log(1/delta) / (eps * math.Log(2*math.E))
	return int(math.Ceil(r))
}

// RequiredRepeatsHoeffding returns the textbook additive-Hoeffding repeat
// count r ≥ ln(2/δ)/(2ε²), kept alongside the paper's formula for
// comparison (DESIGN.md discusses the discrepancy).
func RequiredRepeatsHoeffding(delta, eps float64) int {
	if delta <= 0 || delta >= 1 || eps <= 0 {
		panic(fmt.Sprintf("core: invalid delta=%v or eps=%v", delta, eps))
	}
	r := math.Log(2/delta) / (2 * eps * eps)
	return int(math.Ceil(r))
}

// BimodalDetector answers "is there activity?" for workloads whose
// positive count is bimodal. It is configured from the two decision
// boundaries t_l and t_r (Section VI-A: t_l = μ1 + 2σ1, t_r = μ2 − 2σ2).
type BimodalDetector struct {
	// B is the sampling-bin parameter: each node joins a probe with
	// probability 1/B.
	B float64
	// R is the number of repeated probes.
	R int
	// CutOff is the decision threshold on the count of non-empty
	// probes, (m1+m2)/2.
	CutOff float64
	// PLow and PHigh are the per-probe non-empty probabilities under
	// the two hypotheses.
	PLow, PHigh float64
}

// NewBimodalDetector builds a detector for boundaries (tl, tr) using the
// gap-optimal sampling bin parameter and exactly r repeats. It panics if
// tl >= tr (no separation: the probabilistic model does not apply).
func NewBimodalDetector(tl, tr float64, r int) BimodalDetector {
	if r < 1 {
		panic("core: detector needs at least one repeat")
	}
	b := OptimalSamplingBins(tl, tr)
	pl := BinNonEmptyProb(b, tl)
	ph := BinNonEmptyProb(b, tr)
	return BimodalDetector{
		B:      b,
		R:      r,
		CutOff: float64(r) * (pl + ph) / 2,
		PLow:   pl,
		PHigh:  ph,
	}
}

// NewBimodalDetectorDelta builds a detector whose repeat count is chosen
// by equation 10 for failure probability delta.
func NewBimodalDetectorDelta(tl, tr float64, delta float64) BimodalDetector {
	b := OptimalSamplingBins(tl, tr)
	eps := (BinNonEmptyProb(b, tr) - BinNonEmptyProb(b, tl)) / 2
	return NewBimodalDetector(tl, tr, RequiredRepeatsPaper(delta, eps))
}

// Detect runs the R probes over the given participants and reports whether
// activity (the high mode) is detected, plus the number of queries spent.
// Probes that sample no nodes still consume a query: the initiator cannot
// know the probe is empty of nodes, because membership is decided by each
// node hashing the probe nonce locally. Every probe is drawn into buf's
// storage, so a caller that passes cap(buf) >= len(members) makes the
// call allocation-free.
func (d BimodalDetector) Detect(q query.Querier, members []int, r *rng.Source, buf []int) (activity bool, queries int) {
	if cap(buf) < len(members) {
		buf = make([]int, 0, len(members))
	}
	nonEmpty := 0
	for i := 0; i < d.R; i++ {
		probe := binning.AppendProbabilisticBin(buf[:0], members, 1/d.B, r)
		queries++
		if q.Query(probe).Kind != query.Empty {
			nonEmpty++
		}
	}
	return float64(nonEmpty) > d.CutOff, queries
}

// DeltaGap returns (m1, m2, Δ) for r repeats — the quantities of Figure 8:
// the expected non-empty counts under the two hypotheses and the gap
// between them.
func (d BimodalDetector) DeltaGap() (m1, m2, delta float64) {
	m1 = float64(d.R) * d.PLow
	m2 = float64(d.R) * d.PHigh
	return m1, m2, m2 - m1
}
