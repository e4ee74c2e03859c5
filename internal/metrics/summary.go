package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// summaryQuantiles are the quantile points a Summary exposes on dumps —
// the conventional p50/p90/p99 monitoring set.
var summaryQuantiles = []float64{0.5, 0.9, 0.99}

// Summary is a sketch-backed quantile metric: a relative-error quantile
// sketch (constant memory in the observation count) paired with exact
// count/sum/min/max. Unlike Histogram, a Summary needs no pre-chosen
// bucket bounds — it tracks any value range at a fixed relative accuracy
// — and two summaries over the same observations always expose identical
// quantile estimates regardless of observation order.
//
// The design follows the approximate-counting literature the repo's
// related work draws on (Newport–Zheng (ε,δ)-approximate counting):
// bounded-error state whose size is independent of the population, so a
// million-node field costs no more telemetry than a hundred-node one.
//
// Observe takes a mutex (the sketch's bucket map is not lock-free), so
// summaries belong on per-session/per-trial paths, not per-poll hot
// loops; the obs plane observes one value per session verdict.
type Summary struct {
	mu            sync.Mutex
	q             quantile
	sum, min, max float64
}

// NewSummary returns an empty summary outside any registry.
func NewSummary() *Summary {
	return &Summary{q: quantile{pos: map[int32]uint64{}, neg: map[int32]uint64{}}}
}

// Observe records one sample. NaN is ignored (it has no rank); infinities
// panic, as they would silently absorb the tail.
func (s *Summary) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.q.observe(v)
	switch {
	case s.q.count == 1:
		s.min, s.max = v, v
	case v < s.min:
		s.min = v
	case v > s.max:
		s.max = v
	}
	s.sum += v
}

// Snapshot captures the summary's count, sum, extremes and quantile
// estimates; the Name is left for the caller.
func (s *Summary) Snapshot() SummaryValue {
	s.mu.Lock()
	defer s.mu.Unlock()
	sv := SummaryValue{Count: s.q.count, Sum: s.sum, Min: s.min, Max: s.max}
	if sv.Count > 0 {
		sv.Quantiles = make([]QuantilePoint, len(summaryQuantiles))
		for i, p := range summaryQuantiles {
			sv.Quantiles[i] = QuantilePoint{Q: p, Value: s.q.value(p)}
		}
	}
	return sv
}

// QuantilePoint is one estimated quantile in a summary snapshot.
type QuantilePoint struct {
	Q     float64 `json:"q"`
	Value float64 `json:"value"`
}

// SummaryValue is one summary in a snapshot.
type SummaryValue struct {
	Name      string          `json:"name"`
	Count     uint64          `json:"count"`
	Sum       float64         `json:"sum"`
	Min       float64         `json:"min"`
	Max       float64         `json:"max"`
	Quantiles []QuantilePoint `json:"quantiles,omitempty"`
}

// Summary returns the summary with the given name, creating it on first
// use.
func (r *Registry) Summary(base string, labels ...string) *Summary {
	name := Name(base, labels...)
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.summaries[name]
	if !ok {
		s = NewSummary()
		r.summaries[name] = s
	}
	return s
}

// quantileGamma is the bucket growth factor (1+α)/(1-α) at relative
// accuracy α = 0.01: quantile estimates are within ±1% of the true value
// at the queried rank. It is computed at run time, in float64, so the
// bucket keys match the sketch's float64 arithmetic bit for bit.
var quantileGamma, quantileInvLogG = func() (float64, float64) {
	alpha := 0.01
	gamma := (1 + alpha) / (1 - alpha)
	return gamma, 1 / math.Log(gamma)
}()

// zeroEpsilon collapses values indistinguishable from zero into the zero
// bucket; the telemetry domain (polls, slots, bytes) is non-negative
// integers, so anything below it is a true zero.
const zeroEpsilon = 1e-9

// quantile is a relative-error quantile sketch (log-bucketed,
// DDSketch-style) over float64 observations. Every value in bucket k is
// within a factor gamma of the bucket's representative, and reporting
// the log-midpoint keeps the estimate within ±α·|v| of the true order
// statistic. Memory is O(log(max/min)/log(gamma)) buckets regardless of
// how many values are observed — ~920 buckets span [1, 1e8]. Buckets
// are integer counts, so the summary is independent of observation
// order. Not safe for concurrent use.
type quantile struct {
	pos, neg map[int32]uint64
	zero     uint64
	count    uint64
}

// bucketKey returns the bucket index for a positive magnitude: the
// smallest k with gamma^k >= v. The float log gives a candidate; the
// correction loop pins the invariant gamma^(k-1) < v <= gamma^k exactly,
// so the key is a pure function of v and never depends on libm rounding
// slack.
func bucketKey(v float64) int32 {
	k := int32(math.Ceil(math.Log(v) * quantileInvLogG))
	for math.Pow(quantileGamma, float64(k)) < v {
		k++
	}
	for k > math.MinInt32 && math.Pow(quantileGamma, float64(k-1)) >= v {
		k--
	}
	return k
}

// bucketValue returns bucket k's representative: the log-space midpoint
// 2·gamma^k/(gamma+1), within ±α of every value the bucket admits.
func bucketValue(k int32) float64 {
	return 2 * math.Pow(quantileGamma, float64(k)) / (quantileGamma + 1)
}

// observe folds one non-NaN observation into the sketch.
func (q *quantile) observe(v float64) {
	if math.IsInf(v, 0) {
		panic("metrics: observing an infinite value")
	}
	switch {
	case v > zeroEpsilon:
		q.pos[bucketKey(v)]++
	case v < -zeroEpsilon:
		q.neg[bucketKey(-v)]++
	default:
		q.zero++
	}
	q.count++
}

// value returns the estimated p-quantile (0 <= p <= 1) of the observed
// multiset: the representative value of the bucket holding the order
// statistic at rank floor(p·(count-1)). It panics on an empty sketch or
// a p outside [0, 1].
func (q *quantile) value(p float64) float64 {
	if q.count == 0 {
		panic("metrics: quantile of empty sketch")
	}
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("metrics: quantile %v outside [0,1]", p))
	}
	rank := uint64(p * float64(q.count-1))
	// Walk negative buckets from the most negative value upward, then the
	// zero bucket, then positive buckets upward.
	cum := uint64(0)
	neg := sortedKeys(q.neg)
	for i := len(neg) - 1; i >= 0; i-- {
		cum += q.neg[neg[i]]
		if cum > rank {
			return -bucketValue(neg[i])
		}
	}
	cum += q.zero
	if cum > rank {
		return 0
	}
	for _, k := range sortedKeys(q.pos) {
		cum += q.pos[k]
		if cum > rank {
			return bucketValue(k)
		}
	}
	// Unreachable: the cumulative count equals q.count > rank by the end.
	panic("metrics: rank walk overran the bucket counts")
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys(m map[int32]uint64) []int32 {
	keys := make([]int32, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
