package rng

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided %d/100 times", same)
	}
}

func TestSplitDeterministic(t *testing.T) {
	root := New(7)
	a := root.Split(3)
	b := root.Split(3)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("split streams diverged at step %d", i)
		}
	}
}

func TestSplitIndependentOfParentPosition(t *testing.T) {
	r1 := New(7)
	r2 := New(7)
	r2.Uint64() // advance parent; derivation must not change
	a := r1.Split(5)
	b := r2.Split(5)
	if a.Uint64() != b.Uint64() {
		t.Fatal("Split depends on parent stream position")
	}
}

func TestSplitDistinctLabels(t *testing.T) {
	root := New(7)
	a := root.Split(1)
	b := root.Split(2)
	if a.Uint64() == b.Uint64() && a.Uint64() == b.Uint64() {
		t.Fatal("distinct labels produced identical prefixes")
	}
}

func TestIntnRange(t *testing.T) {
	r := New(11)
	for n := 1; n < 40; n++ {
		for i := 0; i < 50; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniform(t *testing.T) {
	r := New(13)
	const n, trials = 8, 80000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: got %d, want ~%.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(17)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(19)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean = %v, want ~0.5", mean)
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := New(23)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(29)
	const p, n = 0.3, 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	if rate := float64(hits) / n; math.Abs(rate-p) > 0.01 {
		t.Fatalf("rate = %v, want ~%v", rate, p)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(31)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Normal(3, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-3) > 0.05 {
		t.Errorf("mean = %v, want ~3", mean)
	}
	if math.Abs(variance-4) > 0.1 {
		t.Errorf("variance = %v, want ~4", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(37)
	var buf []int
	for n := 0; n < 30; n++ {
		p := r.PermInto(buf, n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
		buf = p
	}
}

// TestPermIntoMatchesFreshBuffer: a reused buffer of any size and
// contents draws the same permutation, from the same draws, as a fresh
// zeroed one filled by the inside-out Fisher-Yates reference.
func TestPermIntoMatchesFreshBuffer(t *testing.T) {
	dirty := make([]int, 0, 64)
	for i := 0; i < cap(dirty); i++ {
		dirty = append(dirty, 1000+i)
	}
	for n := 0; n < 40; n++ {
		want, ref := make([]int, n), New(uint64(n))
		for i := 1; i < n; i++ {
			j := ref.Intn(i + 1)
			want[i] = want[j]
			want[j] = i
		}
		r := New(uint64(n))
		got := r.PermInto(dirty, n)
		if !slices.Equal(got, want) {
			t.Fatalf("PermInto(dirty, %d) = %v, want %v", n, got, want)
		}
		if r.Uint64() != ref.Uint64() {
			t.Fatalf("PermInto(dirty, %d) consumed a different number of draws", n)
		}
	}
	r := New(9)
	buf := r.PermInto(nil, 128)
	if allocs := testing.AllocsPerRun(50, func() { buf = r.PermInto(buf, 128) }); allocs != 0 {
		t.Errorf("warm PermInto: %v allocs, want 0", allocs)
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	r := New(41)
	const n, trials = 5, 50000
	counts := make([]int, n)
	var buf []int
	for i := 0; i < trials; i++ {
		buf = r.PermInto(buf, n)
		counts[buf[0]]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("value %d first with count %d, want ~%.0f", i, c, want)
		}
	}
}

func TestShuffleProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		r := New(seed)
		s := make([]int, n)
		for i := range s {
			s[i] = i
		}
		r.ShuffleInts(s)
		seen := make([]bool, n)
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSampleProperty(t *testing.T) {
	f := func(seed uint64, nRaw, kRaw uint8) bool {
		n := int(nRaw%60) + 1
		k := int(kRaw) % (n + 1)
		r := New(seed)
		s := r.Sample(n, k)
		if len(s) != k {
			return false
		}
		seen := make(map[int]bool, k)
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSamplePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sample(3, 4) did not panic")
		}
	}()
	New(1).Sample(3, 4)
}

func TestMul64(t *testing.T) {
	cases := []struct {
		a, b, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul64(%d, %d) = (%d, %d), want (%d, %d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Intn(1000)
	}
}

func BenchmarkNormFloat64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.NormFloat64()
	}
}

func TestHash64Avalanche(t *testing.T) {
	seen := map[uint64]bool{}
	for i := uint64(0); i < 4096; i++ {
		h := Hash64(i)
		if seen[h] {
			t.Fatalf("collision at %d", i)
		}
		seen[h] = true
	}
	if HashString("a") == HashString("b") {
		t.Fatalf("string hash collision")
	}
	if HashString("") == HashString("a") {
		t.Fatalf("empty string hash equals non-empty")
	}
}
