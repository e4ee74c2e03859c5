package core

import (
	"math"
	"testing"
	"testing/quick"

	"tcast/internal/rng"
)

func TestOptimalBins(t *testing.T) {
	for p, want := range map[float64]float64{0: 1, 1: 2, 5: 6, -3: 1} {
		if got := OptimalBins(p); got != want {
			t.Errorf("OptimalBins(%v) = %v, want %v", p, got, want)
		}
	}
}

func TestEstimatePositivesInvertsExpectation(t *testing.T) {
	// If e equals the expected empty count for a given p, equation 6
	// must return (approximately) p back.
	for _, tc := range []struct {
		b int
		p float64
	}{
		{10, 5}, {20, 8}, {33, 16}, {8, 2},
	} {
		expEmpty := math.Pow(1-1/float64(tc.b), tc.p) * float64(tc.b)
		got := EstimatePositives(int(math.Round(expEmpty)), tc.b, 1e9)
		if math.Abs(got-tc.p) > 1.5 {
			t.Errorf("b=%d p=%v: estimate = %v", tc.b, tc.p, got)
		}
	}
}

func TestEstimatePositivesClamps(t *testing.T) {
	// e = 0 would be -inf: clamped to a finite, positive estimate.
	if got := EstimatePositives(0, 10, 100); math.IsInf(got, 0) || got < 0 {
		t.Fatalf("e=0 estimate = %v", got)
	}
	// e >= b is clamped to b-0.5, giving a small but nonzero estimate.
	if got := EstimatePositives(12, 10, 100); got < 0 || got > 1 {
		t.Fatalf("e>b estimate = %v, want within [0, 1]", got)
	}
	// Degenerate bin counts return maxP.
	if got := EstimatePositives(0, 1, 77); got != 77 {
		t.Fatalf("b=1 estimate = %v, want maxP", got)
	}
	if got := EstimatePositives(0, 0, 77); got != 77 {
		t.Fatalf("b=0 estimate = %v, want maxP", got)
	}
	// maxP cap applies.
	if got := EstimatePositives(1, 1000, 5); got != 5 {
		t.Fatalf("cap estimate = %v, want 5", got)
	}
}

func TestQuickEstimateMonotoneInEmptyBins(t *testing.T) {
	// More empty bins must never increase the positive-count estimate.
	f := func(bRaw, e1Raw, e2Raw uint8) bool {
		b := int(bRaw%50) + 2
		e1 := int(e1Raw) % (b + 1)
		e2 := int(e2Raw) % (b + 1)
		if e1 > e2 {
			e1, e2 = e2, e1
		}
		return EstimatePositives(e2, b, 1e9) <= EstimatePositives(e1, b, 1e9)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestABNSNames(t *testing.T) {
	if (ABNS{P0: 1}).Name() != "ABNS(p0=t)" {
		t.Error("P0=1 name wrong")
	}
	if (ABNS{}).Name() != "ABNS(p0=2t)" || (ABNS{P0: 2}).Name() != "ABNS(p0=2t)" {
		t.Error("default name wrong")
	}
	if (ABNS{P0: 3}).Name() != "ABNS" {
		t.Error("generic name wrong")
	}
}

func TestABNSSmallP0CheapForSmallX(t *testing.T) {
	// Fig 5: for x <= t/2, ABNS(p0=t) undercuts both 2tBins and
	// ABNS(p0=2t) at the left edge.
	const n, th, runs = 128, 16, 400
	small := avgQueries(t, plain(ABNS{P0: 1}), n, th, 2, runs, onePlus(), 90)
	twoT := avgQueries(t, plain(TwoTBins{}), n, th, 2, runs, onePlus(), 91)
	if small >= twoT {
		t.Fatalf("x<<t: ABNS(p0=t) %v not cheaper than 2tBins %v", small, twoT)
	}
}

func TestABNSOracleGapSmallForLargeX(t *testing.T) {
	// Fig 5: 2tBins performs almost as well as the Oracle when x > t/2.
	const n, th, runs = 128, 16, 400
	for _, x := range []int{16, 32, 64} {
		twoT := avgQueries(t, plain(TwoTBins{}), n, th, x, runs, onePlus(), 100+uint64(x))
		oracle := avgQueries(t, func(ch algChannel) Algorithm { return Oracle{Truth: ch} },
			n, th, x, runs, onePlus(), 200+uint64(x))
		if twoT > 2.2*oracle {
			t.Errorf("x=%d: 2tBins %v far above oracle %v", x, twoT, oracle)
		}
	}
}

func TestOracleBeatsTwoTBinsForSmallX(t *testing.T) {
	// Fig 5: for x <= t/2 "the gap between 2tBins and Oracle increases
	// as p decreases".
	const n, th, runs = 128, 16, 400
	twoT := avgQueries(t, plain(TwoTBins{}), n, th, 1, runs, onePlus(), 110)
	oracle := avgQueries(t, func(ch algChannel) Algorithm { return Oracle{Truth: ch} },
		n, th, 1, runs, onePlus(), 111)
	if oracle >= twoT*0.6 {
		t.Fatalf("oracle %v not clearly below 2tBins %v at x=1", oracle, twoT)
	}
}

func TestProbABNSNearOracle(t *testing.T) {
	// Fig 6: ProbABNS "performs almost as good as oracle" across
	// regimes.
	const n, th, runs = 128, 16, 400
	for _, x := range []int{2, 8, 16, 24, 64} {
		prob := avgQueries(t, plain(ProbABNS{}), n, th, x, runs, onePlus(), 300+uint64(x))
		oracle := avgQueries(t, func(ch algChannel) Algorithm { return Oracle{Truth: ch} },
			n, th, x, runs, onePlus(), 400+uint64(x))
		if prob > 2.5*oracle+3 {
			t.Errorf("x=%d: ProbABNS %v far above oracle %v", x, prob, oracle)
		}
	}
}

func TestProbABNSFixesBothABNSWeaknesses(t *testing.T) {
	// Fig 6: ProbABNS eliminates ABNS(p0=t)'s overhead for t < x < 2t
	// and ABNS(p0=2t)'s overhead for x < t/2.
	const n, th, runs = 128, 16, 400
	probSmall := avgQueries(t, plain(ProbABNS{}), n, th, 2, runs, onePlus(), 500)
	p2tSmall := avgQueries(t, plain(ABNS{P0: 2}), n, th, 2, runs, onePlus(), 501)
	if probSmall >= p2tSmall {
		t.Errorf("x<t/2: ProbABNS %v not cheaper than ABNS(p0=2t) %v", probSmall, p2tSmall)
	}
	probMid := avgQueries(t, plain(ProbABNS{}), n, th, 24, runs, onePlus(), 502)
	p1tMid := avgQueries(t, plain(ABNS{P0: 1}), n, th, 24, runs, onePlus(), 503)
	if probMid > p1tMid*1.15 {
		t.Errorf("t<x<2t: ProbABNS %v above ABNS(p0=t) %v", probMid, p1tMid)
	}
}

func TestOracleBinsFormula(t *testing.T) {
	cases := []struct {
		n, t, x int
		want    float64
	}{
		{128, 16, 0, 1},    // x+1
		{128, 16, 8, 9},    // boundary x = t/2 uses x+1
		{128, 16, 12, 20},  // 3x - t
		{128, 16, 16, 32},  // 3x - t = 2t at x = t
		{128, 16, 128, 16}, // x = n gives exactly t
	}
	for _, c := range cases {
		if got := OracleBins(c.n, c.t, c.x); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("OracleBins(%d,%d,%d) = %v, want %v", c.n, c.t, c.x, got, c.want)
		}
	}
	// x > t interpolation stays within (t, 2t].
	for x := 17; x < 128; x++ {
		b := OracleBins(128, 16, x)
		if b <= 16 || b > 32+1e-9 {
			t.Fatalf("OracleBins(128,16,%d) = %v outside (t, 2t]", x, b)
		}
	}
}

func TestOracleZeroPositivesOneQuery(t *testing.T) {
	// x = 0: the oracle uses a single bin spanning everyone; one silent
	// poll decides.
	res := checkCorrect(t, func(ch algChannel) Algorithm { return Oracle{Truth: ch} },
		128, 16, 0, onePlus(), 7)
	if res.Queries != 1 {
		t.Fatalf("queries = %d, want 1", res.Queries)
	}
}

func TestABNSRoundsBounded(t *testing.T) {
	// The adaptive estimate must not livelock even in the stubborn
	// region x ≈ t.
	const n, th = 256, 32
	root := rng.New(8)
	for i := 0; i < 50; i++ {
		r := root.Split(uint64(i))
		res := runOne(t, plain(ABNS{P0: 1}), n, th, th, onePlus(), r.Uint64())
		if res.Rounds > 200 {
			t.Fatalf("trial %d: %d rounds", i, res.Rounds)
		}
	}
}
