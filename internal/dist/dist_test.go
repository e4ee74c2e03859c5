package dist

import (
	"math"
	"testing"
	"testing/quick"

	"tcast/internal/rng"
)

func TestBimodalModes(t *testing.T) {
	r := rng.New(4)
	d := SymmetricBimodal(128, 32, 0) // modes at 32 and 96
	h := NewHistogram(128)
	const n = 50000
	for i := 0; i < n; i++ {
		h.Observe(d.Sample(r))
	}
	// Most mass should be within 3σ of a mode; the valley at n/2 must be
	// nearly empty relative to the modes.
	valley := h.Density(64)
	peak1 := h.Density(32)
	peak2 := h.Density(96)
	if peak1 < 10*valley || peak2 < 10*valley {
		t.Fatalf("modes not separated: peak1=%v peak2=%v valley=%v", peak1, peak2, valley)
	}
}

func TestBimodalMixtureWeight(t *testing.T) {
	r := rng.New(5)
	d := SymmetricBimodal(128, 48, 0)
	quietCount := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if _, quiet := d.SampleLabeled(r); quiet {
			quietCount++
		}
	}
	if frac := float64(quietCount) / n; math.Abs(frac-0.5) > 0.02 {
		t.Fatalf("quiet fraction = %v, want ~0.5", frac)
	}
}

func TestBimodalLabeledConsistency(t *testing.T) {
	// Labeled samples from the quiet mode should cluster near Mu1.
	r := rng.New(6)
	d := SymmetricBimodal(128, 40, 0) // modes 24 and 104, sigma 10
	var quietSum, activeSum float64
	var quietN, activeN int
	for i := 0; i < 20000; i++ {
		c, quiet := d.SampleLabeled(r)
		if quiet {
			quietSum += float64(c)
			quietN++
		} else {
			activeSum += float64(c)
			activeN++
		}
	}
	if m := quietSum / float64(quietN); math.Abs(m-24) > 1 {
		t.Errorf("quiet mean = %v, want ~24", m)
	}
	if m := activeSum / float64(activeN); math.Abs(m-104) > 1 {
		t.Errorf("active mean = %v, want ~104", m)
	}
}

func TestBoundaries(t *testing.T) {
	d := Bimodal{Mu1: 16, Sigma1: 2, Mu2: 96, Sigma2: 4, WQuiet: 0.5, N: 128}
	tl, tr := d.Boundaries()
	if tl != 20 || tr != 88 {
		t.Fatalf("Boundaries = (%v, %v), want (20, 88)", tl, tr)
	}
}

func TestSymmetricBimodalDefaults(t *testing.T) {
	d := SymmetricBimodal(128, 16, 0)
	if d.Mu1 != 48 || d.Mu2 != 80 {
		t.Fatalf("modes = (%v, %v), want (48, 80)", d.Mu1, d.Mu2)
	}
	if d.Sigma1 != 4 || d.Sigma2 != 4 {
		t.Fatalf("default sigma = (%v, %v), want d/4 = 4", d.Sigma1, d.Sigma2)
	}
	custom := SymmetricBimodal(128, 16, 2)
	if custom.Sigma1 != 2 {
		t.Fatalf("explicit sigma ignored: %v", custom.Sigma1)
	}
}

func TestQuickSamplesInRange(t *testing.T) {
	f := func(seed uint64, dRaw uint8) bool {
		n := 128
		d := SymmetricBimodal(n, float64(dRaw%64)+1, 0)
		r := rng.New(seed)
		for i := 0; i < 100; i++ {
			v := d.Sample(r)
			if v < 0 || v > n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(10)
	for _, v := range []int{3, 3, 3, 7, -5, 99} {
		h.Observe(v)
	}
	if h.Total != 6 {
		t.Fatalf("Total = %d, want 6", h.Total)
	}
	if h.Counts[0] != 1 || h.Counts[10] != 1 {
		t.Fatal("clamping failed")
	}
	if h.Mode() != 3 {
		t.Fatalf("Mode = %d, want 3", h.Mode())
	}
	if got := h.Density(3); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("Density(3) = %v, want 0.5", got)
	}
	if h.Density(-1) != 0 || h.Density(11) != 0 {
		t.Fatal("out-of-range density not zero")
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(5)
	if h.Density(2) != 0 {
		t.Fatal("empty histogram density not zero")
	}
}
