// Package tcast implements the singlehop collaborative threshold-querying
// primitive from "Singlehop Collaborative Feedback Primitives for Threshold
// Querying in Wireless Sensor Networks" (Demirbas, Tasci, Gunes, Rudra,
// IPDPS/IPPS 2011).
//
// An initiator node asks: do at least t of my n neighbors satisfy
// predicate P? Receiver-side collision detection (RCD) answers one group
// poll in constant time — all positive group members reply simultaneously
// and the initiator senses silence or activity — and the tcast algorithms
// turn a handful of such polls into an exact threshold answer:
//
//	net, _ := tcast.NewNetwork(128, positives, tcast.WithSeed(1))
//	res, _ := net.Query(16, tcast.TwoTBins())
//	fmt.Println(res.Decision, res.Queries)
//
// The package fronts the full reproduction in internal/: the 2tBins,
// Exponential Increase, ABNS and probabilistic-ABNS algorithms, the
// bimodal O(1) detector, CSMA and sequential baselines, a packet-level
// radio with pollcast/backcast, and an emulated mote testbed. See
// DESIGN.md for the system inventory and EXPERIMENTS.md for the measured
// reproduction of every figure.
package tcast

import (
	"fmt"
	"sync"

	"tcast/internal/core"
	"tcast/internal/count"
	"tcast/internal/dist"
	"tcast/internal/fastsim"
	"tcast/internal/idset"
	"tcast/internal/query"
	"tcast/internal/rng"
)

// Result reports a completed threshold query. It mirrors the paper's cost
// accounting: Queries counts RCD group polls.
type Result = core.Result

// Algorithm is a threshold-querying strategy; obtain one from TwoTBins,
// ExpIncrease, ABNS, ProbABNS or Oracle.
type Algorithm = core.Algorithm

// TwoTBins returns Algorithm 1: fixed 2t random bins per round.
func TwoTBins() Algorithm { return core.TwoTBins{} }

// ExpIncrease returns Algorithm 2: bin count starts at two and doubles
// each round.
func ExpIncrease() Algorithm { return core.ExpIncrease{} }

// ABNS returns Algorithm 3 with initial estimate p0 = p0Mult × t; the
// paper evaluates p0Mult of 1 and 2.
func ABNS(p0Mult float64) Algorithm { return core.ABNS{P0: p0Mult} }

// ProbABNS returns the Section V-D algorithm: one sampling probe picks
// between ABNS(t/4) and 2tBins.
func ProbABNS() Algorithm { return core.ProbABNS{} }

// Network is a simulated singlehop neighborhood with known ground truth —
// the substrate for experimentation with the algorithms. For packet-level
// simulation or the mote testbed, use the internal pollcast and motelab
// packages directly.
//
// A Network is safe for concurrent use: each query runs on its own
// session stream, so goroutines can fire queries in parallel (their
// interleaving decides which stream each one gets).
type Network struct {
	n         int
	positives *idset.Dense
	cfg       fastsim.Config

	mu       sync.Mutex
	root     *rng.Source
	sessions uint64
}

// Option configures a Network.
type Option func(*Network) error

// WithSeed fixes the network's random seed; identical seeds reproduce
// identical query traces.
func WithSeed(seed uint64) Option {
	return func(nw *Network) error {
		nw.root = rng.New(seed)
		return nil
	}
}

// WithTwoPlus upgrades the initiator's radio to the 2+ collision model
// with the default capture-effect strength (beta = 0.5).
func WithTwoPlus() Option {
	return func(nw *Network) error {
		two := fastsim.TwoPlusConfig()
		nw.cfg.Model = two.Model
		nw.cfg.Capture = two.Capture
		nw.cfg.CaptureEffectPresent = two.CaptureEffectPresent
		return nil
	}
}

// WithCaptureBeta sets the 2+ capture-effect strength: the probability of
// decoding one of k simultaneous replies is beta^(k-1). Implies the 2+
// model.
func WithCaptureBeta(beta float64) Option {
	return func(nw *Network) error {
		if beta < 0 || beta > 1 {
			return fmt.Errorf("tcast: capture beta %v outside [0,1]", beta)
		}
		nw.cfg.Model = query.TwoPlus
		nw.cfg.Capture = fastsim.GeometricCapture(beta)
		nw.cfg.CaptureEffectPresent = true
		return nil
	}
}

// WithMissProb sets the per-reply loss probability (radio irregularity);
// whole-bin misses become false negatives, as on the paper's testbed.
func WithMissProb(p float64) Option {
	return func(nw *Network) error {
		if p < 0 || p >= 1 {
			return fmt.Errorf("tcast: miss probability %v outside [0,1)", p)
		}
		nw.cfg.MissProb = p
		return nil
	}
}

// NewNetwork creates a simulated neighborhood of nodes 0..n-1 in which
// exactly the listed nodes are predicate-positive.
func NewNetwork(n int, positives []int, opts ...Option) (*Network, error) {
	if n < 0 {
		return nil, fmt.Errorf("tcast: negative network size %d", n)
	}
	nw := &Network{n: n, positives: idset.NewDense(n), cfg: fastsim.DefaultConfig(), root: rng.New(0)}
	for _, id := range positives {
		if id < 0 || id >= n {
			return nil, fmt.Errorf("tcast: positive node %d outside [0,%d)", id, n)
		}
		nw.positives.Add(id)
	}
	for _, opt := range opts {
		if err := opt(nw); err != nil {
			return nil, err
		}
	}
	return nw, nil
}

// N returns the number of participant nodes.
func (nw *Network) N() int { return nw.n }

// Positives returns the ground-truth positive count (what the initiator
// does not know).
func (nw *Network) Positives() int { return nw.positives.Len() }

// session builds a fresh fastsim channel for one query run.
func (nw *Network) session() (*fastsim.Channel, *rng.Source) {
	nw.mu.Lock()
	nw.sessions++
	r := nw.root.Split(nw.sessions)
	nw.mu.Unlock()
	ch := fastsim.NewFromSet(nw.positives.Clone(), nw.cfg, r.Split(1))
	return ch, r.Split(2)
}

// Query runs one threshold-query session with the given algorithm and
// reports the initiator's decision and its query cost.
func (nw *Network) Query(threshold int, alg Algorithm) (Result, error) {
	ch, r := nw.session()
	return alg.Run(ch, nw.n, threshold, r)
}

// QueryOracle runs the Section V-C oracle — bin counts computed from the
// true x — giving the lower-bound cost the adaptive algorithms chase.
func (nw *Network) QueryOracle(threshold int) (Result, error) {
	ch, r := nw.session()
	return core.Oracle{Truth: ch}.Run(ch, nw.n, threshold, r)
}

// Detector answers bimodal activity queries in O(1) polls (Section VI).
type Detector struct {
	det     core.BimodalDetector
	members []int
}

// NewDetector builds a probabilistic detector for a deployment whose
// positive count is bimodal: roughly mu1 positives when quiet (sigma1
// spread) and mu2 when an event is underway. delta is the acceptable
// failure probability; the number of probes is sized by the paper's
// equation (10).
func NewDetector(n int, mu1, sigma1, mu2, sigma2, delta float64) (*Detector, error) {
	tl, tr := mu1+2*sigma1, mu2-2*sigma2
	if tl >= tr {
		return nil, fmt.Errorf("tcast: modes not separated (t_l=%v >= t_r=%v); the probabilistic model needs a bimodal workload", tl, tr)
	}
	if delta <= 0 || delta >= 1 {
		return nil, fmt.Errorf("tcast: delta %v outside (0,1)", delta)
	}
	members := make([]int, n)
	for i := range members {
		members[i] = i
	}
	return &Detector{det: core.NewBimodalDetectorDelta(tl, tr, delta), members: members}, nil
}

// Repeats returns the number of probes per detection, fixed at
// construction — independent of n, x and t.
func (d *Detector) Repeats() int { return d.det.R }

// Detect runs the probes against the network and reports whether activity
// (the high mode) is present, plus the number of polls spent.
func (d *Detector) Detect(nw *Network) (activity bool, queries int) {
	ch, r := nw.session()
	return d.det.Detect(ch, d.members, r, nil)
}

// QueryAtMost answers "are at most t nodes positive?" — the complement
// threshold, per the k+ decision-tree reduction.
func (nw *Network) QueryAtMost(t int, alg Algorithm) (Result, error) {
	ch, r := nw.session()
	return core.AtMost(alg, ch, nw.n, t, r)
}

// QueryBetween answers "is the positive count within [lo, hi]?" with at
// most two threshold sessions.
func (nw *Network) QueryBetween(lo, hi int, alg Algorithm) (Result, error) {
	ch, r := nw.session()
	return core.Between(alg, ch, nw.n, lo, hi, r)
}

// QueryMonotone answers an arbitrary monotone predicate of the positive
// count (false below some flip point, true at and above it) with a single
// threshold session at the flip point.
func (nw *Network) QueryMonotone(f func(count int) bool, alg Algorithm) (Result, error) {
	ch, r := nw.session()
	return core.EvaluateMonotone(alg, ch, nw.n, f, r)
}

// Identify returns the exact set of positive nodes using adaptive group
// testing over the same RCD polls (O(x log(n/x)) queries), plus the query
// cost — the follow-up question once a threshold fires ("which neighbors
// detected it?").
func (nw *Network) Identify() (positives []int, queries int, err error) {
	ch, _ := nw.session()
	return count.Identify(ch, nw.n, nil)
}

// EstimateCount approximates the number of positive nodes with a
// geometric sampling cascade costing O(repeats·log n) polls. repeats <= 0
// selects the default (32).
func (nw *Network) EstimateCount(repeats int) (estimate float64, queries int) {
	ch, r := nw.session()
	members := make([]int, nw.n)
	for i := range members {
		members[i] = i
	}
	return count.Estimate(ch, members, count.EstimateOptions{Repeats: repeats}, r, nil)
}

// Bimodal re-exports the Section VI workload model for building
// simulations of event-driven deployments.
type Bimodal = dist.Bimodal

// SymmetricBimodal builds the Figure 9/11 workload: modes at n/2 ± d.
func SymmetricBimodal(n int, d, sigma float64) Bimodal {
	return dist.SymmetricBimodal(n, d, sigma)
}
