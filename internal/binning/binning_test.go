package binning

import (
	"math"
	"testing"
	"testing/quick"

	"tcast/internal/rng"
)

func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

func checkPartition(t *testing.T, members []int, bins [][]int, b int) {
	t.Helper()
	if len(bins) != b {
		t.Fatalf("got %d bins, want %d", len(bins), b)
	}
	seen := make(map[int]bool)
	total := 0
	for _, bin := range bins {
		total += len(bin)
		for _, id := range bin {
			if seen[id] {
				t.Fatalf("node %d in two bins", id)
			}
			seen[id] = true
		}
	}
	if total != len(members) {
		t.Fatalf("partition covers %d nodes, want %d", total, len(members))
	}
	for _, id := range members {
		if !seen[id] {
			t.Fatalf("node %d missing from partition", id)
		}
	}
	// Sizes differ by at most one, larger bins first, empty bins last.
	for i := 1; i < len(bins); i++ {
		if len(bins[i]) > len(bins[i-1]) {
			t.Fatalf("bin sizes not non-increasing: %d then %d", len(bins[i-1]), len(bins[i]))
		}
	}
	if len(bins) > 0 {
		if len(bins[0])-len(bins[len(bins)-1]) > 1 && len(bins[len(bins)-1]) != 0 {
			t.Fatalf("bin sizes differ by more than one")
		}
	}
}

func TestRandomPartitionBasic(t *testing.T) {
	r := rng.New(1)
	for _, tc := range []struct{ n, b int }{
		{10, 2}, {10, 3}, {10, 10}, {10, 16}, {1, 4}, {0, 3}, {128, 32},
	} {
		bins := RandomPartition(seq(tc.n), tc.b, r)
		checkPartition(t, seq(tc.n), bins, tc.b)
	}
}

func TestRandomPartitionPanicsOnZeroBins(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RandomPartition(seq(4), 0, rng.New(1))
}

func TestRandomPartitionDoesNotMutateInput(t *testing.T) {
	r := rng.New(2)
	members := seq(20)
	RandomPartition(members, 4, r)
	for i, v := range members {
		if v != i {
			t.Fatal("input slice mutated")
		}
	}
}

func TestRandomPartitionIsRandom(t *testing.T) {
	// Node 0 should land in each of 4 bins roughly uniformly.
	r := rng.New(3)
	const trials = 20000
	counts := make([]int, 4)
	for i := 0; i < trials; i++ {
		bins := RandomPartition(seq(8), 4, r)
		for bi, bin := range bins {
			for _, id := range bin {
				if id == 0 {
					counts[bi]++
				}
			}
		}
	}
	want := float64(trials) / 4
	for bi, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("node 0 in bin %d %d times, want ~%.0f", bi, c, want)
		}
	}
}

func TestProbabilisticBinEdges(t *testing.T) {
	r := rng.New(4)
	if got := AppendProbabilisticBin(nil, seq(10), 0, r); len(got) != 0 {
		t.Fatalf("q=0 produced %v", got)
	}
	if got := AppendProbabilisticBin(nil, seq(10), 1, r); len(got) != 10 {
		t.Fatalf("q=1 produced %d members", len(got))
	}
}

func TestProbabilisticBinRate(t *testing.T) {
	r := rng.New(5)
	const q, trials, n = 0.25, 2000, 40
	total := 0
	for i := 0; i < trials; i++ {
		total += len(AppendProbabilisticBin(nil, seq(n), q, r))
	}
	mean := float64(total) / trials
	if math.Abs(mean-q*n) > 0.3 {
		t.Fatalf("mean bin size = %v, want ~%v", mean, q*n)
	}
}

func TestProbabilisticBinMembersValid(t *testing.T) {
	r := rng.New(6)
	members := []int{3, 7, 11, 15}
	valid := map[int]bool{3: true, 7: true, 11: true, 15: true}
	for i := 0; i < 100; i++ {
		for _, id := range AppendProbabilisticBin(nil, members, 0.5, r) {
			if !valid[id] {
				t.Fatalf("bin contains non-member %d", id)
			}
		}
	}
}

// TestQuickPartitionProperty: for random (n, b, seed), RandomPartition
// produces an exact partition.
func TestQuickPartitionProperty(t *testing.T) {
	f := func(seed uint64, nRaw, bRaw uint8) bool {
		n := int(nRaw % 100)
		b := int(bRaw%32) + 1
		r := rng.New(seed)
		bins := RandomPartition(seq(n), b, r)
		if len(bins) != b {
			return false
		}
		seen := make(map[int]bool)
		for _, bin := range bins {
			for _, id := range bin {
				if id < 0 || id >= n || seen[id] {
					return false
				}
				seen[id] = true
			}
		}
		return len(seen) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
