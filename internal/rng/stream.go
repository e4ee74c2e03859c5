package rng

import (
	"fmt"
	"math"
	"math/bits"
)

// Stream is the bare xoshiro256** state as a value: the one copy of the
// generator's step function, which Source.Uint64 also runs. Its methods
// take the state by value and return the advanced state, so a hot loop
// that holds a Stream from Source.Detach in a local variable —
//
//	st := r.Detach()
//	for ... {
//		var hit bool
//		if hit, st = st.Hit(t); hit { ... }
//	}
//	r.Resume(st)
//
// — keeps its four words in registers across every inlined draw, where
// a pointer receiver would pin them to the stack. Source.Resume hands the
// advanced state back.
type Stream struct {
	s0, s1, s2, s3 uint64
}

// seed fills the state with the next four SplitMix64 outputs of *x.
func (s *Stream) seed(x *uint64) {
	s.s0 = SplitMix64(x)
	s.s1 = SplitMix64(x)
	s.s2 = SplitMix64(x)
	s.s3 = SplitMix64(x)
}

// zero reports the all-zero state, from which xoshiro256** never leaves.
func (s Stream) zero() bool { return s.s0|s.s1|s.s2|s.s3 == 0 }

// Uint64 returns the next 64 uniformly random bits and the advanced
// stream.
func (s Stream) Uint64() (uint64, Stream) {
	s2 := s.s2 ^ s.s0
	s3 := s.s3 ^ s.s1
	return bits.RotateLeft64(s.s1*5, 7) * 9,
		Stream{s.s0 ^ s3, s.s1 ^ s2, s2 ^ s.s1<<17, bits.RotateLeft64(s3, 45)}
}

// Hit reports a Bernoulli trial against t and returns the advanced
// stream, drawing exactly what Source.Bernoulli(p) draws for the p t was
// built from: nothing when p is 0 or 1, otherwise one Uint64.
func (s Stream) Hit(t Threshold) (bool, Stream) {
	if t.lim < drawMin {
		return t.lim != 0, s
	}
	u, s := s.Uint64()
	return u < t.lim, s
}

// Threshold is a Bernoulli probability precomputed for integer
// comparison. Source.Bernoulli(p) tests Float64() < p, and Float64() is
// (u>>11)·2^-53 exactly, so for 0 < p < 1 the test is u>>11 < p·2^53 —
// equivalently u>>11 < ceil(p·2^53), or u < ceil(p·2^53)·2^11: one
// integer comparison against the raw draw, no shift and no float
// conversion. The zero Threshold is p = 0.
type Threshold struct {
	// lim is 0 for p <= 0 (never, no draw), 1 for p >= 1 (always, no
	// draw), and ceil(p·2^53)·2^11 otherwise. A drawing lim is a
	// nonzero multiple of 2^11, so lim >= drawMin tells the cases apart
	// with a single comparison.
	lim uint64
}

const drawMin = 1 << 11

// NewThreshold builds the Threshold equivalent to Bernoulli(p). It panics
// on NaN, which has no such equivalent; callers validate probabilities
// at the edge (faults.ParseSpec rejects non-finite values).
func NewThreshold(p float64) Threshold {
	switch {
	case math.IsNaN(p):
		panic(fmt.Sprintf("rng: NewThreshold(%v)", p))
	case p <= 0:
		return Threshold{}
	case p >= 1:
		return Threshold{lim: 1}
	}
	// p·2^53 is exact (a power-of-two scaling) and below 2^53, so the
	// ceiling is in [1, 2^53-1] and the shifted limit cannot overflow.
	return Threshold{lim: uint64(math.Ceil(p*(1<<53))) << 11}
}
