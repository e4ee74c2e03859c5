// Package sketch provides deterministic, constant-memory summaries for
// the observability stack: a relative-error quantile sketch
// (log-bucketed, DDSketch-style), streaming moments, and a deterministic
// weighted reservoir of exemplars.
//
// The design principle mirrors the approximate-counting literature the
// repo's related work draws on (Newport–Zheng (ε,δ)-approximate neighbor
// counting, the one-hop beeping counters): replace exact dense state with
// bounded-error summaries whose size is independent of the population.
// Telemetry follows the same rule — a million-node field must not cost a
// million-entry ledger per observation plane.
//
// Determinism is load-bearing everywhere:
//
//   - No randomness is consumed. The reservoir derives priorities from a
//     SplitMix64 hash of the exemplar's identity, so instrumented runs
//     stay byte-identical to bare ones and identical runs keep identical
//     exemplars.
//   - Quantile-sketch buckets are integer counts, so the summary is
//     independent of observation order.
//   - Snapshots render buckets in sorted key order, so a summary's
//     encoding is a pure function of the observed multiset.
package sketch

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// DefaultAlpha is the relative accuracy used when a caller passes a
// non-positive alpha: quantile estimates are within ±1% of the true value
// at the queried rank.
const DefaultAlpha = 0.01

// Quantile is a relative-error quantile sketch over float64
// observations. Values are assigned to logarithmic buckets chosen so that
// every value in bucket k is within a factor (1+alpha)/(1-alpha) of the
// bucket's representative value; reporting the log-midpoint keeps the
// estimate within ±alpha·|v| of the true order statistic.
//
// Memory is O(log(max/min)/log(gamma)) buckets regardless of how many
// values are observed — ~920 buckets span [1, 1e8] at alpha=0.01. The
// zero value is not usable; call NewQuantile. Not safe for concurrent
// use.
type Quantile struct {
	alpha    float64
	gamma    float64
	invLogG  float64 // 1 / ln(gamma), cached for the key computation
	pos, neg map[int32]uint64
	zero     uint64
	count    uint64
}

// NewQuantile returns an empty sketch with the given relative accuracy
// alpha in (0, 1); non-positive alpha selects DefaultAlpha. It panics on
// alpha >= 1.
func NewQuantile(alpha float64) *Quantile {
	if alpha <= 0 {
		alpha = DefaultAlpha
	}
	if alpha >= 1 {
		panic(fmt.Sprintf("sketch: alpha %v outside (0,1)", alpha))
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &Quantile{
		alpha:   alpha,
		gamma:   gamma,
		invLogG: 1 / math.Log(gamma),
		pos:     map[int32]uint64{},
		neg:     map[int32]uint64{},
	}
}

// Count returns the number of observations folded in.
func (q *Quantile) Count() uint64 { return q.count }

// Buckets returns the number of occupied buckets — the sketch's memory
// footprint in O(1)-sized cells (the zero bucket counts as one when used).
func (q *Quantile) Buckets() int {
	n := len(q.pos) + len(q.neg)
	if q.zero > 0 {
		n++
	}
	return n
}

// zeroEpsilon collapses values indistinguishable from zero into the zero
// bucket; the telemetry domain (polls, slots, bytes) is non-negative
// integers, so anything below it is a true zero.
const zeroEpsilon = 1e-9

// key returns the bucket index for a positive magnitude: the smallest k
// with gamma^k >= v. The float log gives a candidate; the correction loop
// pins the invariant gamma^(k-1) < v <= gamma^k exactly, so the key is a
// pure function of (v, gamma) and never depends on libm rounding slack.
func (q *Quantile) key(v float64) int32 {
	k := int32(math.Ceil(math.Log(v) * q.invLogG))
	for math.Pow(q.gamma, float64(k)) < v {
		k++
	}
	for k > math.MinInt32 && math.Pow(q.gamma, float64(k-1)) >= v {
		k--
	}
	return k
}

// value returns bucket k's representative: the log-space midpoint
// 2·gamma^k/(gamma+1), within ±alpha of every value the bucket admits.
func (q *Quantile) value(k int32) float64 {
	return 2 * math.Pow(q.gamma, float64(k)) / (q.gamma + 1)
}

// Observe folds one observation into the sketch. NaN is ignored (it has
// no rank); infinities panic, as they would silently absorb the tail.
func (q *Quantile) Observe(v float64) { q.ObserveN(v, 1) }

// ObserveN folds n identical observations — the weighted form backfilling
// pre-counted data (e.g. "N-touched nodes at zero slots") in O(1).
func (q *Quantile) ObserveN(v float64, n uint64) {
	if n == 0 || math.IsNaN(v) {
		return
	}
	if math.IsInf(v, 0) {
		panic("sketch: observing an infinite value")
	}
	switch {
	case v > zeroEpsilon:
		q.pos[q.key(v)] += n
	case v < -zeroEpsilon:
		q.neg[q.key(-v)] += n
	default:
		q.zero += n
	}
	q.count += n
}

// Value returns the estimated p-quantile (0 <= p <= 1) of the observed
// multiset: the representative value of the bucket holding the order
// statistic at rank floor(p·(count-1)). The estimate is within relative
// error alpha of that order statistic. It panics on an empty sketch or a
// p outside [0, 1].
func (q *Quantile) Value(p float64) float64 {
	if q.count == 0 {
		panic("sketch: quantile of empty sketch")
	}
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("sketch: quantile %v outside [0,1]", p))
	}
	rank := uint64(p * float64(q.count-1))
	// Walk negative buckets from the most negative value upward, then the
	// zero bucket, then positive buckets upward.
	cum := uint64(0)
	for _, k := range sortedKeysDesc(q.neg) {
		cum += q.neg[k]
		if cum > rank {
			return -q.value(k)
		}
	}
	cum += q.zero
	if cum > rank {
		return 0
	}
	for _, k := range sortedKeysAsc(q.pos) {
		cum += q.pos[k]
		if cum > rank {
			return q.value(k)
		}
	}
	// Unreachable: the cumulative count equals q.count > rank by the end.
	panic("sketch: rank walk overran the bucket counts")
}

// Values returns several quantiles in one bucket walk's worth of work.
func (q *Quantile) Values(ps ...float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = q.Value(p)
	}
	return out
}

// AppendTo renders the sketch deterministically: alpha, count, and every
// occupied bucket in ascending key order. Two sketches over the same
// multiset — regardless of observation order — render byte-identically.
func (q *Quantile) AppendTo(b *strings.Builder) {
	fmt.Fprintf(b, "quantile alpha=%g count=%d buckets=%d\n", q.alpha, q.count, q.Buckets())
	for _, k := range sortedKeysDesc(q.neg) {
		fmt.Fprintf(b, "  bucket -%d %d\n", k, q.neg[k])
	}
	if q.zero > 0 {
		fmt.Fprintf(b, "  bucket zero %d\n", q.zero)
	}
	for _, k := range sortedKeysAsc(q.pos) {
		fmt.Fprintf(b, "  bucket %d %d\n", k, q.pos[k])
	}
}

// String implements fmt.Stringer via AppendTo.
func (q *Quantile) String() string {
	var b strings.Builder
	q.AppendTo(&b)
	return b.String()
}

func sortedKeysAsc(m map[int32]uint64) []int32 {
	keys := make([]int32, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func sortedKeysDesc(m map[int32]uint64) []int32 {
	keys := sortedKeysAsc(m)
	for i, j := 0, len(keys)-1; i < j; i, j = i+1, j-1 {
		keys[i], keys[j] = keys[j], keys[i]
	}
	return keys
}

// Hash64 is the SplitMix64 finalizer over one 64-bit word — the
// deterministic hash the reservoir (and the trace sampler) key on. It is
// a bijection with full avalanche, so consecutive identities (poll 0, 1,
// 2, ...) spread uniformly over the 64-bit space.
func Hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// HashString folds a string into a 64-bit key by iterating Hash64 over
// its bytes (FNV-style combine, SplitMix finalize per word).
func HashString(s string) uint64 {
	h := uint64(len(s))
	for i := 0; i < len(s); i++ {
		h = Hash64(h ^ uint64(s[i]))
	}
	return h
}
