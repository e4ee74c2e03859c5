package core

import (
	"math"
	"testing"
	"testing/quick"

	"tcast/internal/dist"
	"tcast/internal/fastsim"
	"tcast/internal/rng"
)

func TestBinNonEmptyProb(t *testing.T) {
	if got := BinNonEmptyProb(2, 1); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("b=2 x=1: %v, want 0.5", got)
	}
	if got := BinNonEmptyProb(2, 2); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("b=2 x=2: %v, want 0.75", got)
	}
	if got := BinNonEmptyProb(10, 0); got != 0 {
		t.Errorf("x=0: %v, want 0", got)
	}
	if got := BinNonEmptyProb(1, 5); got != 1 {
		t.Errorf("b=1: %v, want 1", got)
	}
}

func TestQuickBinNonEmptyProbMonotone(t *testing.T) {
	// More positives can only make a sampling bin more likely non-empty.
	f := func(bRaw, x1Raw, x2Raw uint8) bool {
		b := float64(bRaw%60) + 2
		x1 := float64(x1Raw % 100)
		x2 := float64(x2Raw % 100)
		if x1 > x2 {
			x1, x2 = x2, x1
		}
		return BinNonEmptyProb(b, x1) <= BinNonEmptyProb(b, x2)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestOptimalSamplingBinsClosedForm(t *testing.T) {
	// The worked example of Section VI-A: n=128, μ1=16, μ2=96 (σ→0).
	b := OptimalSamplingBins(16, 96)
	// u = (16/96)^(1/80); b = 1/(1-u) ≈ 45.2.
	if math.Abs(b-45.2) > 0.5 {
		t.Fatalf("b = %v, want ≈45.2", b)
	}
	// The gap at the optimum should be ≈ 0.582 (making ε ≈ 0.291, which
	// is what reproduces the paper's r=19 at δ=1%).
	gap := BinNonEmptyProb(b, 96) - BinNonEmptyProb(b, 16)
	if math.Abs(gap-0.582) > 0.01 {
		t.Fatalf("gap = %v, want ≈0.582", gap)
	}
}

func TestOptimalSamplingBinsIsArgmax(t *testing.T) {
	// Scan confirms the closed form maximizes the gap.
	tl, tr := 20.0, 70.0
	best := OptimalSamplingBins(tl, tr)
	bestGap := BinNonEmptyProb(best, tr) - BinNonEmptyProb(best, tl)
	for b := 2.0; b < 200; b += 0.5 {
		gap := BinNonEmptyProb(b, tr) - BinNonEmptyProb(b, tl)
		if gap > bestGap+1e-9 {
			t.Fatalf("b=%v has gap %v > optimum %v at b=%v", b, gap, bestGap, best)
		}
	}
}

func TestOptimalSamplingBinsEdges(t *testing.T) {
	if got := OptimalSamplingBins(0, 10); got != 1 {
		t.Fatalf("tl=0: b = %v, want 1", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unseparated boundaries did not panic")
		}
	}()
	OptimalSamplingBins(10, 10)
}

func TestRequiredRepeatsPaperWorkedExample(t *testing.T) {
	// Paper: n=128, μ1=16, μ2=96 — "when δ = 1% we need 19 repeats".
	b := OptimalSamplingBins(16, 96)
	eps := (BinNonEmptyProb(b, 96) - BinNonEmptyProb(b, 16)) / 2
	if got := RequiredRepeatsPaper(0.01, eps); got != 19 {
		t.Fatalf("r(δ=1%%) = %d, want 19", got)
	}
	// δ = 5%: paper reports 12; the printed formula with ceil gives 13
	// (12.16 before rounding) — accept either rounding convention.
	if got := RequiredRepeatsPaper(0.05, eps); got != 12 && got != 13 {
		t.Fatalf("r(δ=5%%) = %d, want 12 or 13", got)
	}
}

func TestRequiredRepeatsDecreaseWithDelta(t *testing.T) {
	if RequiredRepeatsPaper(0.05, 0.3) >= RequiredRepeatsPaper(0.01, 0.3) {
		t.Fatal("looser delta did not reduce repeats")
	}
	if RequiredRepeatsHoeffding(0.05, 0.3) >= RequiredRepeatsHoeffding(0.01, 0.3) {
		t.Fatal("looser delta did not reduce Hoeffding repeats")
	}
}

func TestRequiredRepeatsPanicOnBadArgs(t *testing.T) {
	for _, f := range []func(){
		func() { RequiredRepeatsPaper(0, 0.3) },
		func() { RequiredRepeatsPaper(1, 0.3) },
		func() { RequiredRepeatsPaper(0.05, 0) },
		func() { RequiredRepeatsHoeffding(0, 0.3) },
		func() { RequiredRepeatsHoeffding(0.05, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestNewBimodalDetector(t *testing.T) {
	d := NewBimodalDetector(16, 96, 9)
	if d.R != 9 {
		t.Fatalf("R = %d", d.R)
	}
	if d.PLow >= d.PHigh {
		t.Fatal("hypothesis probabilities not ordered")
	}
	m1, m2, delta := d.DeltaGap()
	if math.Abs(m1-9*d.PLow) > 1e-9 || math.Abs(m2-9*d.PHigh) > 1e-9 {
		t.Fatal("DeltaGap inconsistent")
	}
	if math.Abs(delta-(m2-m1)) > 1e-9 {
		t.Fatal("delta inconsistent")
	}
	if d.CutOff <= m1 || d.CutOff >= m2 {
		t.Fatalf("cutoff %v not between m1=%v and m2=%v", d.CutOff, m1, m2)
	}
}

func TestNewBimodalDetectorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("r=0 did not panic")
		}
	}()
	NewBimodalDetector(16, 96, 0)
}

// detectorAccuracy measures the fraction of correct activity decisions
// over trials draws from the bimodal workload.
func detectorAccuracy(t *testing.T, n int, bi dist.Bimodal, det BimodalDetector, trials int, seed uint64) float64 {
	t.Helper()
	root := rng.New(seed)
	members := make([]int, n)
	for i := range members {
		members[i] = i
	}
	correct := 0
	for i := 0; i < trials; i++ {
		r := root.Split(uint64(i))
		x, quiet := bi.SampleLabeled(r.Split(1))
		ch, _ := fastsim.RandomPositives(n, x, fastsim.DefaultConfig(), r.Split(2))
		activity, queries := det.Detect(ch, members, r.Split(3), nil)
		if queries != det.R {
			t.Fatalf("queries = %d, want %d", queries, det.R)
		}
		if activity == !quiet {
			correct++
		}
	}
	return float64(correct) / float64(trials)
}

func TestDetectorHighAccuracyWhenSeparated(t *testing.T) {
	// Fig 9: nine repeats give >90% accuracy once d > 32.
	const n = 128
	bi := dist.SymmetricBimodal(n, 48, 0)
	tl, tr := bi.Boundaries()
	det := NewBimodalDetector(tl, tr, 9)
	if acc := detectorAccuracy(t, n, bi, det, 400, 900); acc < 0.9 {
		t.Fatalf("accuracy = %v, want > 0.9", acc)
	}
}

func TestDetectorAccuracyGrowsWithRepeats(t *testing.T) {
	const n = 128
	bi := dist.SymmetricBimodal(n, 24, 0)
	tl, tr := bi.Boundaries()
	acc1 := detectorAccuracy(t, n, bi, NewBimodalDetector(tl, tr, 1), 600, 901)
	acc9 := detectorAccuracy(t, n, bi, NewBimodalDetector(tl, tr, 9), 600, 902)
	if acc9 <= acc1 {
		t.Fatalf("r=9 accuracy %v not above r=1 accuracy %v", acc9, acc1)
	}
}

func TestDetectorStrugglesWhenOverlapping(t *testing.T) {
	// Fig 9: d ≈ 8 yields accuracies as low as ~70%.
	const n = 128
	bi := dist.SymmetricBimodal(n, 8, 0)
	tl, tr := bi.Boundaries()
	det := NewBimodalDetector(tl, tr, 3)
	if acc := detectorAccuracy(t, n, bi, det, 600, 903); acc > 0.92 {
		t.Fatalf("accuracy = %v suspiciously high for overlapping modes", acc)
	}
}

func TestNewBimodalDetectorDelta(t *testing.T) {
	det := NewBimodalDetectorDelta(16, 96, 0.01)
	if det.R != 19 {
		t.Fatalf("R = %d, want 19 (worked example)", det.R)
	}
}
