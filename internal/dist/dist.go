// Package dist provides the workload distributions used by the paper's
// evaluation, most importantly the bimodal positive-count distribution of
// Section VI: "if there is no activity in the network, there are only a few
// replies which are possibly false positives. If there is an activity, we
// expect a significant number of nodes to detect it."
package dist

import (
	"fmt"
	"math"

	"tcast/internal/rng"
)

// Bimodal is the Section VI mixture: with probability WQuiet the count is
// drawn from the "quiet" mode N(Mu1, Sigma1²) (false positives only), and
// otherwise from the "activity" mode N(Mu2, Sigma2²). Samples are clamped
// to [0, N].
type Bimodal struct {
	Mu1, Sigma1 float64 // quiet mode, Mu1 ≈ 0 in deployments
	Mu2, Sigma2 float64 // activity mode, k ≤ Mu2 ≤ n
	WQuiet      float64 // probability of the quiet mode
	N           int     // number of participant nodes
}

// SymmetricBimodal builds the Figure 9/11 workload: modes at n/2 − d and
// n/2 + d with equal weight. The paper does not print σ for these figures;
// we follow the visual in Fig 11 and use σ = d/4 so that 2σ boundaries
// (t_l, t_r) sit strictly between the modes, unless sigma > 0 is supplied.
func SymmetricBimodal(n int, d, sigma float64) Bimodal {
	if sigma <= 0 {
		sigma = d / 4
	}
	return Bimodal{
		Mu1: float64(n)/2 - d, Sigma1: sigma,
		Mu2: float64(n)/2 + d, Sigma2: sigma,
		WQuiet: 0.5,
		N:      n,
	}
}

// Sample draws a positive-node count.
func (d Bimodal) Sample(r *rng.Source) int {
	var v float64
	if r.Bernoulli(d.WQuiet) {
		v = r.Normal(d.Mu1, d.Sigma1)
	} else {
		v = r.Normal(d.Mu2, d.Sigma2)
	}
	c := int(math.Round(v))
	if c < 0 {
		c = 0
	}
	if c > d.N {
		c = d.N
	}
	return c
}

// SampleLabeled is like Sample but also reports which mode generated the
// draw (quiet=true for the Mu1 mode). Experiments use the label as ground
// truth when measuring detector accuracy.
func (d Bimodal) SampleLabeled(r *rng.Source) (count int, quiet bool) {
	quiet = r.Bernoulli(d.WQuiet)
	var v float64
	if quiet {
		v = r.Normal(d.Mu1, d.Sigma1)
	} else {
		v = r.Normal(d.Mu2, d.Sigma2)
	}
	count = int(math.Round(v))
	if count < 0 {
		count = 0
	}
	if count > d.N {
		count = d.N
	}
	return count, quiet
}

// Boundaries returns the Section VI-A decision boundaries
// t_l = μ1 + 2σ1 and t_r = μ2 − 2σ2.
func (d Bimodal) Boundaries() (tl, tr float64) {
	return d.Mu1 + 2*d.Sigma1, d.Mu2 - 2*d.Sigma2
}

// Histogram counts integer samples into unit-width buckets over [0, n].
type Histogram struct {
	Counts []int
	Total  int
}

// NewHistogram returns a histogram with buckets 0..n.
func NewHistogram(n int) *Histogram {
	return &Histogram{Counts: make([]int, n+1)}
}

// Observe records one sample. Out-of-range samples are clamped.
func (h *Histogram) Observe(v int) {
	if v < 0 {
		v = 0
	}
	if v >= len(h.Counts) {
		v = len(h.Counts) - 1
	}
	h.Counts[v]++
	h.Total++
}

// Density returns the fraction of samples in bucket v.
func (h *Histogram) Density(v int) float64 {
	if h.Total == 0 || v < 0 || v >= len(h.Counts) {
		return 0
	}
	return float64(h.Counts[v]) / float64(h.Total)
}

// Mode returns the bucket with the highest count (ties: lowest bucket).
func (h *Histogram) Mode() int {
	best, bestCount := 0, -1
	for v, c := range h.Counts {
		if c > bestCount {
			best, bestCount = v, c
		}
	}
	return best
}

// String summarizes the histogram.
func (h *Histogram) String() string {
	return fmt.Sprintf("Histogram{total=%d, mode=%d}", h.Total, h.Mode())
}
