package count

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"tcast/internal/fastsim"
	"tcast/internal/query"
	"tcast/internal/rng"
)

func identifyOn(t *testing.T, n, x int, cfg fastsim.Config, seed uint64) ([]int, []int, int) {
	t.Helper()
	r := rng.New(seed)
	ch, truth := fastsim.RandomPositives(n, x, cfg, r.Split(1))
	got, queries, err := Identify(ch, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	return got, truth.Members(), queries
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestIdentifyExactOnePlus(t *testing.T) {
	for _, tc := range []struct{ n, x int }{
		{1, 0}, {1, 1}, {16, 0}, {16, 1}, {16, 16}, {64, 5}, {128, 20}, {100, 99},
	} {
		for seed := uint64(0); seed < 3; seed++ {
			got, want, _ := identifyOn(t, tc.n, tc.x, fastsim.DefaultConfig(), seed)
			if !sameInts(got, want) {
				t.Fatalf("n=%d x=%d seed=%d: got %v, want %v", tc.n, tc.x, seed, got, want)
			}
		}
	}
}

func TestIdentifyExactTwoPlus(t *testing.T) {
	for _, cfg := range []fastsim.Config{
		fastsim.TwoPlusConfig(),
		{Model: query.TwoPlus, Capture: fastsim.NoCapture(), CaptureEffectPresent: false},
	} {
		for seed := uint64(0); seed < 3; seed++ {
			got, want, _ := identifyOn(t, 64, 10, cfg, seed)
			if !sameInts(got, want) {
				t.Fatalf("2+ seed=%d: got %v, want %v", seed, got, want)
			}
		}
	}
}

func TestIdentifyZeroPositivesOneQuery(t *testing.T) {
	_, _, queries := identifyOn(t, 128, 0, fastsim.DefaultConfig(), 1)
	if queries != 1 {
		t.Fatalf("x=0 used %d queries, want 1", queries)
	}
}

func TestIdentifyQueryBound(t *testing.T) {
	// Binary splitting costs at most ~2x·(log2 n + 1) + 1.
	const n = 128
	for _, x := range []int{1, 4, 16, 64} {
		_, _, queries := identifyOn(t, n, x, fastsim.DefaultConfig(), uint64(x))
		bound := 2*x*(8+1) + 1
		if queries > bound {
			t.Fatalf("x=%d: %d queries exceeds bound %d", x, queries, bound)
		}
	}
}

func TestIdentifyEdgeCases(t *testing.T) {
	r := rng.New(1)
	ch, _ := fastsim.RandomPositives(0, 0, fastsim.DefaultConfig(), r)
	got, queries, err := Identify(ch, 0, nil)
	if err != nil || len(got) != 0 || queries != 0 {
		t.Fatalf("n=0: %v, %d, %v", got, queries, err)
	}
	if _, _, err := Identify(ch, -1, nil); err == nil {
		t.Fatal("negative n accepted")
	}
}

func TestQuickIdentifyExact(t *testing.T) {
	f := func(seed uint64, nRaw, xRaw uint8, twoPlus bool) bool {
		n := int(nRaw%100) + 1
		x := int(xRaw) % (n + 1)
		cfg := fastsim.DefaultConfig()
		if twoPlus {
			cfg = fastsim.TwoPlusConfig()
		}
		r := rng.New(seed)
		ch, truth := fastsim.RandomPositives(n, x, cfg, r.Split(1))
		got, _, err := Identify(ch, n, nil)
		if err != nil {
			return false
		}
		return sameInts(got, truth.Members())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func members(n int) []int {
	m := make([]int, n)
	for i := range m {
		m[i] = i
	}
	return m
}

func TestEstimateZeroExact(t *testing.T) {
	r := rng.New(2)
	ch, _ := fastsim.RandomPositives(64, 0, fastsim.DefaultConfig(), r.Split(1))
	xHat, queries := Estimate(ch, members(64), EstimateOptions{Repeats: 8}, r.Split(2), nil)
	if xHat != 0 {
		t.Fatalf("x=0 estimated as %v", xHat)
	}
	if queries != 8 {
		t.Fatalf("x=0 used %d queries, want 8 (one level)", queries)
	}
}

func TestEstimateEmptyMembers(t *testing.T) {
	r := rng.New(3)
	ch, _ := fastsim.RandomPositives(4, 2, fastsim.DefaultConfig(), r.Split(1))
	xHat, queries := Estimate(ch, nil, EstimateOptions{}, r.Split(2), nil)
	if xHat != 0 || queries != 0 {
		t.Fatalf("empty members: %v, %d", xHat, queries)
	}
}

func TestEstimateAccuracy(t *testing.T) {
	// The geometric estimator should land within a factor of two of the
	// truth on average for a spread of cardinalities.
	const n, trials = 512, 60
	for _, x := range []int{4, 16, 64, 200} {
		var logErr float64
		root := rng.New(uint64(100 + x))
		for i := 0; i < trials; i++ {
			r := root.Split(uint64(i))
			ch, _ := fastsim.RandomPositives(n, x, fastsim.DefaultConfig(), r.Split(1))
			xHat, _ := Estimate(ch, members(n), EstimateOptions{Repeats: 32}, r.Split(2), nil)
			if xHat <= 0 {
				t.Fatalf("x=%d estimated as %v", x, xHat)
			}
			logErr += math.Abs(math.Log2(xHat / float64(x)))
		}
		if mean := logErr / trials; mean > 1 {
			t.Errorf("x=%d: mean |log2 error| = %v, want <= 1 (factor 2)", x, mean)
		}
	}
}

func TestEstimateQueryBudget(t *testing.T) {
	// Cost is O(Repeats · log n), never O(n).
	const n = 4096
	r := rng.New(9)
	ch, _ := fastsim.RandomPositives(n, 100, fastsim.DefaultConfig(), r.Split(1))
	_, queries := Estimate(ch, members(n), EstimateOptions{Repeats: 16}, r.Split(2), nil)
	maxLevels := 14 // log2(4096)=12, plus slack
	if queries > 16*maxLevels {
		t.Fatalf("%d queries exceeds budget %d", queries, 16*maxLevels)
	}
}

func TestEstimateMonotoneQueries(t *testing.T) {
	// More positives stop the cascade later, so queries grow (weakly)
	// with x on average.
	const n = 256
	avg := func(x int) float64 {
		total := 0
		root := rng.New(uint64(500 + x))
		for i := 0; i < 40; i++ {
			r := root.Split(uint64(i))
			ch, _ := fastsim.RandomPositives(n, x, fastsim.DefaultConfig(), r.Split(1))
			_, q := Estimate(ch, members(n), EstimateOptions{Repeats: 8}, r.Split(2), nil)
			total += q
		}
		return float64(total) / 40
	}
	if avg(2) >= avg(128) {
		t.Fatalf("query cost did not grow with x: %v vs %v", avg(2), avg(128))
	}
}

func BenchmarkIdentify(b *testing.B) {
	root := rng.New(1)
	for i := 0; i < b.N; i++ {
		r := root.Split(uint64(i))
		ch, _ := fastsim.RandomPositives(128, 16, fastsim.DefaultConfig(), r)
		if _, _, err := Identify(ch, 128, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEstimate(b *testing.B) {
	root := rng.New(1)
	m := members(512)
	for i := 0; i < b.N; i++ {
		r := root.Split(uint64(i))
		ch, _ := fastsim.RandomPositives(512, 64, fastsim.DefaultConfig(), r.Split(1))
		Estimate(ch, m, EstimateOptions{Repeats: 16}, r.Split(2), nil)
	}
}

// Estimate draws every probe into one buffer, so a call allocates at most
// that buffer however many levels and repeats it walks, and nothing when
// the caller's buffer holds the members.
func TestEstimateAllocatesOneProbeBuffer(t *testing.T) {
	const n = 128
	members := make([]int, n)
	for i := range members {
		members[i] = i
	}
	buf := make([]int, 0, n)
	for _, x := range []int{0, 4, 40, n} {
		ch, _ := fastsim.RandomPositives(n, x, fastsim.DefaultConfig(), rng.New(uint64(x)))
		r := rng.New(7)
		allocs := testing.AllocsPerRun(20, func() {
			Estimate(ch, members, EstimateOptions{Repeats: 16}, r, nil)
		})
		if allocs > 1 {
			t.Errorf("x=%d: %v allocations per Estimate, want at most 1", x, allocs)
		}
		allocs = testing.AllocsPerRun(20, func() {
			Estimate(ch, members, EstimateOptions{Repeats: 16}, r, buf)
		})
		if allocs != 0 {
			t.Errorf("x=%d: %v allocations per Estimate into a caller's buffer, want 0", x, allocs)
		}
	}
}

// TestEstimateBufferKeepsDraws: a caller's buffer, of any capacity and
// contents, changes neither the estimate nor the stream's position.
func TestEstimateBufferKeepsDraws(t *testing.T) {
	const n = 128
	dirty := make([]int, 3, 200)
	for _, x := range []int{0, 1, 9, 40, n} {
		ch, _ := fastsim.RandomPositives(n, x, fastsim.DefaultConfig(), rng.New(uint64(x)))
		for _, buf := range [][]int{nil, dirty[:1], dirty} {
			r1, r2 := rng.New(uint64(x)+5), rng.New(uint64(x)+5)
			xa, qa := Estimate(ch, members(n), EstimateOptions{Repeats: 16}, r1, nil)
			xb, qb := Estimate(ch, members(n), EstimateOptions{Repeats: 16}, r2, buf)
			if xa != xb || qa != qb || r1.Uint64() != r2.Uint64() {
				t.Fatalf("x=%d cap %d: estimate (%v, %d), want (%v, %d) on the same draws", x, cap(buf), xb, qb, xa, qa)
			}
		}
	}
}

// identifyReference is Identify as it stood before Scratch: a fresh
// identity bin, bin stack and result per call, and a fresh remainder per
// decode.
func identifyReference(q query.Querier, n int) ([]int, int, error) {
	if n == 0 {
		return nil, 0, nil
	}
	traits := q.Traits()
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	var positives []int
	queries := 0
	stack := [][]int{all}
	for len(stack) > 0 {
		bin := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if len(bin) == 0 {
			continue
		}
		resp := q.Query(bin)
		queries++
		switch resp.Kind {
		case query.Empty:
		case query.Decoded:
			positives = append(positives, resp.DecodedID)
			rest := make([]int, 0, len(bin)-1)
			for _, v := range bin {
				if v != resp.DecodedID {
					rest = append(rest, v)
				}
			}
			if traits.CaptureEffect && len(rest) > 0 {
				stack = append(stack, rest)
			}
		default:
			if len(bin) == 1 {
				positives = append(positives, bin[0])
				continue
			}
			mid := len(bin) / 2
			stack = append(stack, bin[:mid], bin[mid:])
		}
	}
	slices.Sort(positives)
	return positives, queries, nil
}

// binLog records every polled bin below the querier it wraps.
type binLog struct {
	query.Querier
	bins []string
}

func (l *binLog) Query(bin []int) query.Response {
	l.bins = append(l.bins, fmt.Sprint(bin))
	return l.Querier.Query(bin)
}

// TestIdentifyScratchMatchesReference: one warm Scratch, reused across
// models, capture settings, lossy channels and field sizes, polls the
// same bins in the same order and identifies the same positives as the
// allocating reference.
func TestIdentifyScratchMatchesReference(t *testing.T) {
	lossy := fastsim.DefaultConfig()
	lossy.MissProb, lossy.FalseActiveProb = 0.2, 0.05
	cfgs := []fastsim.Config{
		fastsim.DefaultConfig(),
		fastsim.TwoPlusConfig(),
		{Model: query.TwoPlus, Capture: fastsim.NoCapture(), CaptureEffectPresent: false},
		lossy,
	}
	var sc Scratch
	for ci, cfg := range cfgs {
		for _, tc := range []struct{ n, x int }{{1, 1}, {16, 3}, {64, 10}, {128, 40}, {100, 99}, {33, 0}} {
			for seed := uint64(0); seed < 4; seed++ {
				chA, _ := fastsim.RandomPositives(tc.n, tc.x, cfg, rng.New(seed))
				chB, _ := fastsim.RandomPositives(tc.n, tc.x, cfg, rng.New(seed))
				ref, got := &binLog{Querier: chA}, &binLog{Querier: chB}
				wantPos, wantQ, err := identifyReference(ref, tc.n)
				if err != nil {
					t.Fatal(err)
				}
				gotPos, gotQ, err := Identify(got, tc.n, &sc)
				if err != nil {
					t.Fatal(err)
				}
				if !sameInts(gotPos, wantPos) || gotQ != wantQ || !slices.Equal(got.bins, ref.bins) {
					t.Fatalf("cfg %d n=%d x=%d seed=%d: got %v in %d polls, want %v in %d polls (bins equal: %v)",
						ci, tc.n, tc.x, seed, gotPos, gotQ, wantPos, wantQ, slices.Equal(got.bins, ref.bins))
				}
			}
		}
	}
}

// TestIdentifyWarmAllocationFree: a warm Scratch identifies without
// allocating, under 1+ and under 2+ with capture (where every decode
// filters a remainder).
func TestIdentifyWarmAllocationFree(t *testing.T) {
	for _, cfg := range []fastsim.Config{fastsim.DefaultConfig(), fastsim.TwoPlusConfig()} {
		for _, x := range []int{0, 5, 40, 128} {
			ch, _ := fastsim.RandomPositives(128, x, cfg, rng.New(uint64(x)))
			var sc Scratch
			if _, _, err := Identify(ch, 128, &sc); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if _, _, err := Identify(ch, 128, &sc); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("model %v x=%d: %v allocations per warm Identify, want 0", cfg.Model, x, allocs)
			}
		}
	}
}
