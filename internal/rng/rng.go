// Package rng provides a deterministic, splittable pseudo-random number
// generator and the samplers the simulators need.
//
// Reproducibility is a first-class requirement for the experiment harness:
// every simulated trial derives its own independent stream from a root seed
// plus a trial label, so trials can run on any number of goroutines in any
// order and still produce bit-identical results. The generator is
// xoshiro256** seeded through SplitMix64, both implemented here so the
// module has no dependency on math/rand's global state or version-dependent
// stream definitions.
package rng

import (
	"math"
	"math/bits"
)

// Source is a deterministic pseudo-random stream. It is NOT safe for
// concurrent use; derive one Source per goroutine with Split.
type Source struct {
	st Stream
	// key identifies this stream for Split derivation. It is fixed at
	// construction so Split results do not depend on how many values the
	// parent has emitted.
	key uint64
	// spare holds a cached second output of the Box-Muller transform.
	spare    float64
	hasSpare bool
}

// SplitMix64 advances *x and returns the next SplitMix64 output. It
// seeds and derives streams here, and keys binning's Feistel rounds.
func SplitMix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Hash64 is the SplitMix64 finalizer over one 64-bit word: a bijection
// with full avalanche, so consecutive identities (poll 0, 1, 2, ...)
// spread uniformly over the 64-bit space. The trace sampler and the obs
// exemplar reservoir key on it, consuming no stream.
func Hash64(x uint64) uint64 { return SplitMix64(&x) }

// HashString folds a string into a 64-bit key by iterating Hash64 over
// its bytes (FNV-style combine, SplitMix finalize per word).
func HashString(s string) uint64 {
	h := uint64(len(s))
	for i := 0; i < len(s); i++ {
		h = Hash64(h ^ uint64(s[i]))
	}
	return h
}

// New returns a Source seeded from seed. Two Sources created with the same
// seed produce identical streams.
func New(seed uint64) *Source {
	var s Source
	x := seed
	s.key = SplitMix64(&x)
	s.st.seed(&x)
	// xoshiro256** must not start from the all-zero state; SplitMix64 of any
	// seed cannot produce four zero words, but guard anyway.
	if s.st.zero() {
		s.st.s0 = 0x9e3779b97f4a7c15
	}
	return &s
}

// Split derives an independent Source identified by label. Splitting the
// same Source with the same label always yields the same stream, and
// distinct labels yield streams that are independent for all practical
// purposes. Split does not advance the parent stream, so the derivation
// tree is stable no matter how many values the parent has emitted.
func (r *Source) Split(label uint64) *Source {
	var s Source
	r.SplitInto(label, &s)
	return &s
}

// SplitInto derives the same stream Split(label) would return, writing it
// into *dst instead of allocating. dst may be a previously used Source; its
// entire state (including any cached Box-Muller spare) is overwritten, so
// SplitInto(label, dst) leaves dst bit-identical to Split(label). Deriving
// reads only the parent's immutable key, so concurrent SplitInto calls on a
// shared parent are safe.
func (r *Source) SplitInto(label uint64, dst *Source) {
	x := r.key ^ (label * 0xd1342543de82ef95)
	dst.key = SplitMix64(&x)
	dst.st.seed(&x)
	if dst.st.zero() {
		dst.st.s0 = 1
	}
	dst.spare = 0
	dst.hasSpare = false
}

// Uint64 returns the next 64 uniformly random bits.
func (r *Source) Uint64() uint64 {
	u, st := r.st.Uint64()
	r.st = st
	return u
}

// Detach hands the Source's xoshiro256** state to the caller as a value,
// so a hot loop can keep it in registers instead of loading and storing
// it through the Source on every draw. The Source must not be used again
// until Resume returns the advanced state to it; drawing from the Stream
// in between consumes exactly the values the Source would have produced.
func (r *Source) Detach() Stream { return r.st }

// Resume writes back the state of a Stream obtained from Detach, so the
// Source continues from where the Stream stopped.
func (r *Source) Resume(s Stream) { r.st = s }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Lemire's nearly-divisionless method keeps the distribution exactly
// uniform without modulo bias.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo). bits.Mul64
// compiles to the single widening-multiply instruction on 64-bit targets,
// which matters because every Intn draw multiplies here.
func mul64(a, b uint64) (hi, lo uint64) {
	return bits.Mul64(a, b)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Bernoulli reports true with probability p (clamped to [0, 1]). p <= 0
// and p >= 1 consume no draw; otherwise exactly one Uint64 is drawn.
// A loop that tests the same p many times should build a Threshold once
// and use Stream.Hit, which draws and decides identically.
func (r *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// NormFloat64 returns a standard normal variate using the polar Box-Muller
// method with a cached spare.
func (r *Source) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * f
		r.hasSpare = true
		return u * f
	}
}

// Normal returns a normal variate with the given mean and standard
// deviation.
func (r *Source) Normal(mean, stddev float64) float64 {
	return mean + stddev*r.NormFloat64()
}

// PermInto fills dst with a uniformly random permutation of [0, n) and
// returns it, reusing dst's storage when it holds n values. The draws are
// an inside-out Fisher-Yates pass: index i ascends from 1, each drawing
// one Intn(i+1), so a reused buffer's stale contents never matter.
func (r *Source) PermInto(dst []int, n int) []int {
	if cap(dst) < n {
		dst = make([]int, n)
	} else {
		dst = dst[:n]
	}
	if n > 0 {
		dst[0] = 0
	}
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		dst[i] = dst[j]
		dst[j] = i
	}
	return dst
}

// ShuffleInts shuffles s in place with the Fisher-Yates algorithm: swap
// index i descends from len(s)-1, each drawing one Intn(i+1).
func (r *Source) ShuffleInts(s []int) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// Sample returns k distinct values drawn uniformly from [0, n) in random
// order. It panics if k > n or k < 0.
func (r *Source) Sample(n, k int) []int {
	out, _ := r.SampleInto(n, k, nil, nil)
	return out
}

// AppendSampleSparse draws k distinct values uniformly from [0, n) with
// Floyd's algorithm — k Intn draws and O(k) space, no length-n scratch —
// and appends them to dst. This is the sampler for huge sparse fields
// (populations at or above idset.SparseCutover), where SampleInto's
// dense index array would dominate a trial's footprint. The appended
// values are a uniformly random k-subset, but in Floyd's insertion order
// rather than Sample's uniformly random order; callers that consume the
// values as a set (the positive-set draw) are unaffected. Duplicate
// checks scan the appended prefix, so cost is O(k^2) worst case — the
// k ≪ n regime this serves keeps that trivial. It panics if k is out of
// [0, n].
func (r *Source) AppendSampleSparse(n, k int, dst []int) []int {
	if k < 0 || k > n {
		panic("rng: Sample called with k out of range")
	}
	start := len(dst)
	for j := n - k; j < n; j++ {
		t := r.Intn(j + 1)
		dup := false
		for _, v := range dst[start:] {
			if v == t {
				dup = true
				break
			}
		}
		if dup {
			// t was already drawn; Floyd's invariant says j itself is
			// still free, and choosing it keeps the subset uniform.
			dst = append(dst, j)
		} else {
			dst = append(dst, t)
		}
	}
	return dst
}

// SampleInto is Sample with caller-owned buffers: the k results land in
// dst (grown as needed) and idx is the length-n scratch for the partial
// Fisher-Yates pass. It returns the result slice and the scratch for
// reuse; the draws are bit-identical to Sample's.
func (r *Source) SampleInto(n, k int, dst, idx []int) (out, scratch []int) {
	if k < 0 || k > n {
		panic("rng: Sample called with k out of range")
	}
	// Partial Fisher-Yates over a dense index array: O(n) setup, exact.
	if cap(idx) < n {
		idx = make([]int, n)
	} else {
		idx = idx[:n]
	}
	for i := range idx {
		idx[i] = i
	}
	if cap(dst) < k {
		dst = make([]int, k)
	} else {
		dst = dst[:k]
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
		dst[i] = idx[i]
	}
	return dst, idx
}
