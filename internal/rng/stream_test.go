package rng

import (
	"math"
	"testing"
)

// thresholdPs are the edge probabilities of the Threshold contract plus a
// spread of interior values.
var thresholdPs = []float64{
	-1, 0, math.SmallestNonzeroFloat64, 0x1p-53, 0x1p-52, 1e-9, 0.002, 0.1,
	0.125, 1.0 / 3, 0.5, 0.8, math.Nextafter(1, 0), 1, 2,
}

// TestThresholdMatchesBernoulli: a Hit against NewThreshold(p) returns
// what Bernoulli(p) returns and consumes the same draws, over 10^6 trials
// per p.
func TestThresholdMatchesBernoulli(t *testing.T) {
	const draws = 1_000_000
	for _, p := range thresholdPs {
		th := NewThreshold(p)
		ref, src := New(2011), New(2011)
		st := src.Detach()
		hits := 0
		for i := 0; i < draws; i++ {
			want := ref.Bernoulli(p)
			var got bool
			if got, st = st.Hit(th); got != want {
				t.Fatalf("p=%v draw %d: Hit = %v, Bernoulli = %v", p, i, got, want)
			}
			if want {
				hits++
			}
		}
		src.Resume(st)
		if got, want := src.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("p=%v: streams diverged after %d trials (%d hits)", p, draws, hits)
		}
		if draws := th.lim >= drawMin; draws != (p > 0 && p < 1) {
			t.Fatalf("p=%v: threshold %#x draws = %v", p, th.lim, draws)
		}
	}
}

// TestThresholdBoundIsExact pins the ceil(p·2^53) bound against the float
// comparison Bernoulli makes: the largest 53-bit value below the bound
// passes Float64() < p and the bound itself fails it. A raw draw u passes
// u < bound·2^11 exactly when u>>11 < bound. Random draws almost
// never land on that edge, so this checks it directly.
func TestThresholdBoundIsExact(t *testing.T) {
	r := New(7)
	ps := append([]float64(nil), thresholdPs...)
	for i := 0; i < 100000; i++ {
		ps = append(ps, r.Float64(), math.Ldexp(r.Float64(), -r.Intn(60)))
	}
	for _, p := range ps {
		if p <= 0 || p >= 1 {
			continue
		}
		lim := NewThreshold(p).lim
		b := lim >> 11
		if b<<11 != lim || b < 1 || b >= 1<<53 {
			t.Fatalf("p=%v: limit %#x is not a bound in [1, 2^53) shifted by 11", p, lim)
		}
		if below := float64(b-1) * 0x1p-53; !(below < p) {
			t.Fatalf("p=%v: value %d below the bound fails Float64() < p", p, b-1)
		}
		if at := float64(b) * 0x1p-53; at < p {
			t.Fatalf("p=%v: bound value %d passes Float64() < p", p, b)
		}
	}
}

func TestNewThresholdPanicsOnNaN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewThreshold(NaN) did not panic")
		}
	}()
	NewThreshold(math.NaN())
}

// TestDetachResumeMatchesSource: drawing through a detached Stream and
// resuming yields the Source's own sequence, and the Source continues
// from where the Stream stopped.
func TestDetachResumeMatchesSource(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		ref := New(seed).Split(seed)
		src := New(seed).Split(seed)
		for k := 0; k < 40; k++ {
			st := src.Detach()
			for i := 0; i < k; i++ {
				var got uint64
				got, st = st.Uint64()
				if want := ref.Uint64(); got != want {
					t.Fatalf("seed %d: Stream draw %d = %d, Source %d", seed, i, got, want)
				}
			}
			src.Resume(st)
			if got, want := src.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d: resumed Source drew %d, want %d", seed, got, want)
			}
		}
	}
}

// TestSourceUint64KnownAnswer pins the xoshiro256** output for a fixed
// seed, so refactoring the step function cannot silently change every
// stream in the module.
func TestSourceUint64KnownAnswer(t *testing.T) {
	r := New(2011)
	var got [4]uint64
	for i := range got {
		got[i] = r.Uint64()
	}
	want := [4]uint64{0xad46ac2e85344d11, 0x86a3d523a57886cd, 0xf3358236ed87b716, 0x45ee00b92fdf3c48}
	if got != want {
		t.Fatalf("New(2011) first draws = %#x, want %#x", got, want)
	}
}

func BenchmarkStreamHit(b *testing.B) {
	th := NewThreshold(0.2)
	src := New(1)
	st := src.Detach()
	hits := 0
	for i := 0; i < b.N; i++ {
		var hit bool
		if hit, st = st.Hit(th); hit {
			hits++
		}
	}
	src.Resume(st)
	_ = hits
}

func BenchmarkBernoulli(b *testing.B) {
	r := New(1)
	hits := 0
	for i := 0; i < b.N; i++ {
		if r.Bernoulli(0.2) {
			hits++
		}
	}
	_ = hits
}
