package core

import (
	"slices"
	"testing"

	"tcast/internal/binning"
	"tcast/internal/fastsim"
	"tcast/internal/rng"
)

func TestTwoTBinsAllPositiveCostsT(t *testing.T) {
	// x = n: every bin is non-empty, so the t-th poll resolves the
	// session — exactly t queries (Section V intro).
	const n, th = 128, 16
	res := checkCorrect(t, plain(TwoTBins{}), n, th, n, onePlus(), 1)
	if res.Queries != th {
		t.Fatalf("queries = %d, want %d", res.Queries, th)
	}
	if res.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1", res.Rounds)
	}
}

func TestTwoTBinsNoPositivesCost(t *testing.T) {
	// x = 0 with n divisible by 2t: bins of exactly n/2t nodes, every
	// poll silent, stop once fewer than t candidates remain. The paper
	// estimates (n−t)/(n/2t) = 28 polls for n=128, t=16; the strict
	// "< t" stop rule makes it 29.
	const n, th = 128, 16
	res := checkCorrect(t, plain(TwoTBins{}), n, th, 0, onePlus(), 2)
	if res.Queries != 29 {
		t.Fatalf("queries = %d, want 29", res.Queries)
	}
}

func TestTwoTBinsPeaksNearThreshold(t *testing.T) {
	// Fig 1 shape: cost at x ≈ t dominates cost at the extremes.
	const n, th, runs = 128, 16, 300
	peak := avgQueries(t, plain(TwoTBins{}), n, th, th, runs, onePlus(), 3)
	low := avgQueries(t, plain(TwoTBins{}), n, th, 1, runs, onePlus(), 4)
	high := avgQueries(t, plain(TwoTBins{}), n, th, 120, runs, onePlus(), 5)
	if peak <= low || peak <= high {
		t.Fatalf("cost not peaked at x≈t: low=%v peak=%v high=%v", low, peak, high)
	}
}

func TestTwoTBinsTwoPlusNoWorse(t *testing.T) {
	// Fig 2: the 2+ model never costs more on average; the gap is
	// biggest near x = t−1.
	const n, th, runs = 128, 16, 400
	for _, x := range []int{4, 12, 15, 16, 24, 64} {
		one := avgQueries(t, plain(TwoTBins{}), n, th, x, runs, onePlus(), 10+uint64(x))
		two := avgQueries(t, plain(TwoTBins{}), n, th, x, runs, twoPlus(), 20+uint64(x))
		if two > one*1.05 { // allow 5% sampling noise
			t.Errorf("x=%d: 2+ cost %v exceeds 1+ cost %v", x, two, one)
		}
	}
}

func TestTwoTBinsTwoPlusGainAtTMinus1(t *testing.T) {
	// Section IV-C2: "the superiority of 2+ is especially evident around
	// x = t−1 in the 2tBins method".
	const n, th, runs = 128, 16, 400
	one := avgQueries(t, plain(TwoTBins{}), n, th, th-1, runs, onePlus(), 30)
	two := avgQueries(t, plain(TwoTBins{}), n, th, th-1, runs, twoPlus(), 31)
	if two >= one*0.9 {
		t.Fatalf("2+ gain at x=t-1 too small: 1+=%v 2+=%v", one, two)
	}
}

func TestDefaultPathMatchesRandomPartition(t *testing.T) {
	// The session's allocation-free partition draws exactly the same
	// random sequence as binning.RandomPartition: round after round on
	// one source, both give the same bins and leave the source in the
	// same state.
	for _, removed := range []int{0, 3, 40, 120} {
		for seed := uint64(0); seed < 5; seed++ {
			s := newSession(nil, nil, 128, 16, rng.New(seed))
			for id := 0; id < removed; id++ {
				s.k.Candidates.Remove(id * 128 / (removed + 1))
			}
			ref := rng.New(seed)
			for _, b := range []int{2, 16, 32, 128} {
				b = min(b, s.k.Candidates.Len())
				want := binning.RandomPartition(s.k.Candidates.Members(), b, ref)
				got := s.partition(b)
				if len(got) != len(want) {
					t.Fatalf("removed=%d seed=%d b=%d: %d bins, want %d", removed, seed, b, len(got), len(want))
				}
				for i := range got {
					if !slices.Equal(got[i], want[i]) {
						t.Fatalf("removed=%d seed=%d b=%d bin %d: %v, want %v", removed, seed, b, i, got[i], want[i])
					}
				}
			}
			if s.r.Uint64() != ref.Uint64() {
				t.Fatalf("removed=%d seed=%d: sources diverged", removed, seed)
			}
		}
	}
}

func TestExpIncreaseCheapForSmallX(t *testing.T) {
	// Section IV-B: ExpIncrease beats 2tBins when x << t ...
	const n, th, runs = 128, 16, 300
	exp := avgQueries(t, plain(ExpIncrease{}), n, th, 1, runs, onePlus(), 50)
	twoT := avgQueries(t, plain(TwoTBins{}), n, th, 1, runs, onePlus(), 51)
	if exp >= twoT {
		t.Fatalf("x<<t: ExpIncrease %v not cheaper than 2tBins %v", exp, twoT)
	}
}

func TestExpIncreaseWorseForLargeX(t *testing.T) {
	// ... and "performs consistently worse than 2tBins" when x >> t.
	const n, th, runs = 128, 16, 300
	exp := avgQueries(t, plain(ExpIncrease{}), n, th, 100, runs, onePlus(), 52)
	twoT := avgQueries(t, plain(TwoTBins{}), n, th, 100, runs, onePlus(), 53)
	if exp <= twoT {
		t.Fatalf("x>>t: ExpIncrease %v not worse than 2tBins %v", exp, twoT)
	}
}

func TestExpIncreaseZeroPositives(t *testing.T) {
	// x = 0: round one has two bins; both silent. After the first silent
	// bin 64 candidates remain (>= t); after the second, zero remain.
	res := checkCorrect(t, plain(ExpIncrease{}), 128, 16, 0, onePlus(), 54)
	if res.Queries != 2 {
		t.Fatalf("queries = %d, want 2", res.Queries)
	}
}

func TestExpVariantsRemainCorrect(t *testing.T) {
	for _, v := range []ExpVariant{ExpPauseAndContinue, ExpFourfold} {
		alg := ExpIncrease{Variant: v}
		for _, x := range []int{0, 3, 16, 17, 90} {
			checkCorrect(t, plain(alg), 128, 16, x, onePlus(), uint64(60+x))
		}
	}
}

func TestExpVariantNames(t *testing.T) {
	if (ExpIncrease{}).Name() != "ExpIncrease" {
		t.Error("default name wrong")
	}
	if (ExpIncrease{Variant: ExpPauseAndContinue}).Name() != "ExpIncrease(pause-and-continue)" {
		t.Error("pause variant name wrong")
	}
	if (ExpIncrease{Variant: ExpFourfold}).Name() != "ExpIncrease(fourfold)" {
		t.Error("fourfold variant name wrong")
	}
	if ExpVariant(9).String() != "unknown" {
		t.Error("unknown variant string wrong")
	}
}

func TestCostDeclinesAsThresholdLeavesX(t *testing.T) {
	// Fig 3 shape: with x fixed at 4, cost peaks near t ≈ x and declines
	// toward both edges. The adaptive ExpIncrease shows the full shape;
	// fixed 2tBins necessarily keeps paying ~2t(n−t)/n to prove "false"
	// for mid-range t, so only its t→0 edge is asserted.
	const n, x, runs = 128, 4, 300
	atX := avgQueries(t, plain(ExpIncrease{}), n, 4, x, runs, onePlus(), 70)
	farAbove := avgQueries(t, plain(ExpIncrease{}), n, 64, x, runs, onePlus(), 71)
	tiny := avgQueries(t, plain(ExpIncrease{}), n, 1, x, runs, onePlus(), 72)
	if atX <= tiny || atX <= farAbove {
		t.Fatalf("Fig 3 shape violated for ExpIncrease: t=1:%v t=4:%v t=64:%v", tiny, atX, farAbove)
	}
	twoTAtX := avgQueries(t, plain(TwoTBins{}), n, 4, x, runs, onePlus(), 73)
	twoTTiny := avgQueries(t, plain(TwoTBins{}), n, 1, x, runs, onePlus(), 74)
	if twoTAtX <= twoTTiny {
		t.Fatalf("2tBins cost at t=x (%v) not above t=1 (%v)", twoTAtX, twoTTiny)
	}
}

func TestTwoPlusBeatsOnePlusAcrossThresholds(t *testing.T) {
	// Fig 3: "the relationship between 1+ and 2+ is preserved for all t
	// values".
	const n, x, runs = 128, 4, 300
	for _, th := range []int{2, 4, 8, 16} {
		one := avgQueries(t, plain(TwoTBins{}), n, th, x, runs, onePlus(), 75+uint64(th))
		two := avgQueries(t, plain(TwoTBins{}), n, th, x, runs, twoPlus(), 85+uint64(th))
		if two > one*1.05 {
			t.Errorf("t=%d: 2+ cost %v exceeds 1+ cost %v", th, two, one)
		}
	}
}

func TestNoCaptureDecodeExcludesWholeBin(t *testing.T) {
	// With an idealized 2+ radio (no capture effect) a decode proves a
	// singleton bin, which can only help. Check correctness and that it
	// is not more expensive than the capture-effect radio on average.
	const n, th, runs = 128, 16, 300
	withCapture := avgQueries(t, plain(TwoTBins{}), n, th, th-1, runs, twoPlus(), 80)
	noCapture := avgQueries(t, plain(TwoTBins{}), n, th, th-1, runs, idealTwoPlus(), 81)
	if noCapture > withCapture*1.1 {
		t.Fatalf("no-capture radio more expensive: %v vs %v", noCapture, withCapture)
	}
}

func benchAlg(b *testing.B, fac algFactory, n, th, x int, cfg fastsim.Config) {
	root := rng.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := root.Split(uint64(i))
		ch, _ := fastsim.RandomPositives(n, x, cfg, r.Split(1))
		if _, err := fac(ch).Run(ch, n, th, r.Split(2)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTwoTBins(b *testing.B)    { benchAlg(b, plain(TwoTBins{}), 128, 16, 16, onePlus()) }
func BenchmarkExpIncrease(b *testing.B) { benchAlg(b, plain(ExpIncrease{}), 128, 16, 16, onePlus()) }
