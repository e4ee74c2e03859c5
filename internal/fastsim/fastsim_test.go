package fastsim

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"tcast/internal/query"
	"tcast/internal/rng"
)

func TestEmptyBinIsSilent(t *testing.T) {
	c := New(10, []int{1, 2}, DefaultConfig(), rng.New(1))
	for i := 0; i < 100; i++ {
		if r := c.Query([]int{0, 3, 4}); r.Kind != query.Empty {
			t.Fatalf("all-negative bin answered %v", r.Kind)
		}
	}
}

func TestPositiveBinIsActiveOnePlus(t *testing.T) {
	c := New(10, []int{5}, DefaultConfig(), rng.New(2))
	for i := 0; i < 100; i++ {
		if r := c.Query([]int{4, 5, 6}); r.Kind != query.Active {
			t.Fatalf("positive bin answered %v", r.Kind)
		}
	}
}

func TestEmptyBinOfNodes(t *testing.T) {
	c := New(10, []int{5}, DefaultConfig(), rng.New(3))
	if r := c.Query(nil); r.Kind != query.Empty {
		t.Fatalf("nil bin answered %v", r.Kind)
	}
}

func TestTwoPlusSingleDecodes(t *testing.T) {
	c := New(10, []int{7}, TwoPlusConfig(), rng.New(4))
	for i := 0; i < 100; i++ {
		r := c.Query([]int{6, 7, 8})
		if r.Kind != query.Decoded || r.DecodedID != 7 {
			t.Fatalf("lone positive gave %v/%d", r.Kind, r.DecodedID)
		}
	}
}

func TestTwoPlusCollisionOrCapture(t *testing.T) {
	c := New(10, []int{1, 2, 3}, TwoPlusConfig(), rng.New(5))
	decoded, collided := 0, 0
	for i := 0; i < 2000; i++ {
		r := c.Query([]int{1, 2, 3})
		switch r.Kind {
		case query.Decoded:
			decoded++
			if r.DecodedID != 1 && r.DecodedID != 2 && r.DecodedID != 3 {
				t.Fatalf("decoded a non-replier: %d", r.DecodedID)
			}
		case query.Collision:
			collided++
		default:
			t.Fatalf("unexpected kind %v", r.Kind)
		}
	}
	// With beta = 0.5 and k = 3, capture probability is 0.25.
	rate := float64(decoded) / float64(decoded+collided)
	if math.Abs(rate-0.25) > 0.04 {
		t.Fatalf("capture rate = %v, want ~0.25", rate)
	}
}

func TestNoCaptureModel(t *testing.T) {
	cfg := Config{Model: query.TwoPlus, Capture: NoCapture(), CaptureEffectPresent: false}
	c := New(10, []int{1, 2}, cfg, rng.New(6))
	for i := 0; i < 100; i++ {
		if r := c.Query([]int{1, 2}); r.Kind != query.Collision {
			t.Fatalf("two repliers with NoCapture gave %v", r.Kind)
		}
	}
	if c.Traits().CaptureEffect {
		t.Fatal("traits claim capture effect")
	}
}

func TestGeometricCaptureValues(t *testing.T) {
	m := GeometricCapture(0.5)
	for k, want := range map[int]float64{1: 1, 2: 0.5, 3: 0.25, 4: 0.125} {
		if got := m(k); math.Abs(got-want) > 1e-12 {
			t.Errorf("GeometricCapture(0.5)(%d) = %v, want %v", k, got, want)
		}
	}
	if m(0) != 1 {
		t.Error("k=0 should degenerate to 1")
	}
}

// TestGeometricCaptureStopsAtFixedPoint: a huge superposition must not
// grow the memoized power table past the product's fixed point (beta^k
// underflows to 0 near k = 1076 at beta = 0.5), and every value must
// still be the O(k) loop's.
func TestGeometricCaptureStopsAtFixedPoint(t *testing.T) {
	m := GeometricCapture(0.5)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if got := m(1 << 20); got != 0 {
		t.Fatalf("GeometricCapture(0.5)(2^20) = %v, want 0", got)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<10 {
		t.Errorf("GeometricCapture(0.5)(2^20) allocated %d bytes, want < 64 KB", grew)
	}
	for _, beta := range []float64{0.5, 0.9, 0.999, 1, 0} {
		m := GeometricCapture(beta)
		m(1 << 20) // reach the fixed point first, then read below it
		p := 1.0
		for k := 1; k <= 4096; k++ {
			if got := m(k); math.Float64bits(got) != math.Float64bits(p) {
				t.Fatalf("GeometricCapture(%v)(%d) = %v, loop gives %v", beta, k, got, p)
			}
			p *= beta
		}
	}
}

func TestInverseCaptureValues(t *testing.T) {
	m := InverseCapture()
	for k, want := range map[int]float64{1: 1, 2: 0.5, 4: 0.25} {
		if got := m(k); math.Abs(got-want) > 1e-12 {
			t.Errorf("InverseCapture()(%d) = %v, want %v", k, got, want)
		}
	}
}

func TestMissProbFalseNegativeRate(t *testing.T) {
	// One positive with miss probability 0.3: bin should look Empty ~30%
	// of the time.
	cfg := DefaultConfig()
	cfg.MissProb = 0.3
	c := New(4, []int{0}, cfg, rng.New(7))
	misses := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		if c.Query([]int{0}).Kind == query.Empty {
			misses++
		}
	}
	if rate := float64(misses) / trials; math.Abs(rate-0.3) > 0.02 {
		t.Fatalf("false-negative rate = %v, want ~0.3", rate)
	}
}

func TestMissProbDropsWithSuperposition(t *testing.T) {
	// With k superposed replies the whole bin is missed only when all k
	// are missed — the testbed's "error rate slashes down" effect.
	cfg := DefaultConfig()
	cfg.MissProb = 0.3
	c := New(4, []int{0, 1, 2}, cfg, rng.New(8))
	misses := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		if c.Query([]int{0, 1, 2}).Kind == query.Empty {
			misses++
		}
	}
	want := 0.3 * 0.3 * 0.3
	if rate := float64(misses) / trials; math.Abs(rate-want) > 0.01 {
		t.Fatalf("false-negative rate = %v, want ~%v", rate, want)
	}
}

func TestFalseActiveProb(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FalseActiveProb = 0.2
	c := New(4, nil, cfg, rng.New(9))
	active := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		if c.Query([]int{0, 1}).Kind == query.Active {
			active++
		}
	}
	if rate := float64(active) / trials; math.Abs(rate-0.2) > 0.02 {
		t.Fatalf("false-active rate = %v, want ~0.2", rate)
	}
}

func TestFalseActiveTwoPlusLooksLikeCollision(t *testing.T) {
	cfg := TwoPlusConfig()
	cfg.FalseActiveProb = 1
	c := New(4, nil, cfg, rng.New(10))
	if r := c.Query([]int{0}); r.Kind != query.Collision {
		t.Fatalf("interference under 2+ gave %v", r.Kind)
	}
}

func TestRandomPositives(t *testing.T) {
	r := rng.New(11)
	c, set := RandomPositives(50, 12, DefaultConfig(), r)
	if c.Positives() != 12 || set.Len() != 12 {
		t.Fatalf("Positives = %d, want 12", c.Positives())
	}
	count := 0
	for i := 0; i < 50; i++ {
		if c.IsPositive(i) {
			count++
		}
	}
	if count != 12 {
		t.Fatalf("ground truth count = %d", count)
	}
}

func TestTraits(t *testing.T) {
	one := New(4, nil, DefaultConfig(), rng.New(12))
	if tr := one.Traits(); tr.Model != query.OnePlus || tr.CaptureEffect {
		t.Fatalf("1+ traits = %+v", tr)
	}
	two := New(4, nil, TwoPlusConfig(), rng.New(13))
	if tr := two.Traits(); tr.Model != query.TwoPlus || !tr.CaptureEffect {
		t.Fatalf("2+ traits = %+v", tr)
	}
}

// TestQuickIdealChannelSound: on a perfect radio, Empty answers are always
// truthful and non-Empty answers always indicate a real positive.
func TestQuickIdealChannelSound(t *testing.T) {
	f := func(seed uint64, xRaw uint8, twoPlus bool) bool {
		const n = 40
		x := int(xRaw) % (n + 1)
		r := rng.New(seed)
		cfg := DefaultConfig()
		if twoPlus {
			cfg = TwoPlusConfig()
		}
		c, set := RandomPositives(n, x, cfg, r)
		for trial := 0; trial < 20; trial++ {
			bin := r.Sample(n, r.Intn(n+1))
			hasPositive := false
			for _, id := range bin {
				if set.Contains(id) {
					hasPositive = true
					break
				}
			}
			resp := c.Query(bin)
			if (resp.Kind == query.Empty) == hasPositive {
				return false
			}
			if resp.Kind == query.Decoded && !set.Contains(resp.DecodedID) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkQuery128(b *testing.B) {
	r := rng.New(1)
	c, _ := RandomPositives(128, 16, DefaultConfig(), r)
	bin := r.Sample(128, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Query(bin)
	}
}
