package binning

import (
	"math"
	"testing"
	"testing/quick"

	"tcast/internal/rng"
)

// The arena partition must satisfy the partition invariants — every member
// in exactly one bin, sizes within one of each other, node-less bins last —
// and stay bit-identical to the package-level RandomPartition while its
// buffers are recycled across calls.
func TestQuickArenaPartitionInvariants(t *testing.T) {
	var a Arena
	f := func(seed uint64, nRaw, bRaw uint8) bool {
		n := int(nRaw % 100)
		b := int(bRaw%32) + 1
		members := seq(n)

		fresh := RandomPartition(members, b, rng.New(seed))
		pooled := a.RandomPartition(members, b, rng.New(seed))

		if len(pooled) != b || len(fresh) != b {
			return false
		}
		seen := make(map[int]bool)
		minSize, maxSize := n+1, -1
		sawEmpty := false
		for i, bin := range pooled {
			if len(bin) == 0 {
				sawEmpty = true
			} else if sawEmpty {
				t.Logf("non-empty bin %d after an empty one", i)
				return false
			}
			if len(bin) < minSize {
				minSize = len(bin)
			}
			if len(bin) > maxSize {
				maxSize = len(bin)
			}
			for _, id := range bin {
				if id < 0 || id >= n || seen[id] {
					return false
				}
				seen[id] = true
			}
		}
		if len(seen) != n {
			return false
		}
		if b <= n && maxSize-minSize > 1 {
			t.Logf("bin sizes %d..%d differ by more than one", minSize, maxSize)
			return false
		}
		// Bit-identical to the allocating form, same seed.
		for i := range fresh {
			if len(fresh[i]) != len(pooled[i]) {
				return false
			}
			for j := range fresh[i] {
				if fresh[i][j] != pooled[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestArenaPartitionDoesNotMutateInput(t *testing.T) {
	var a Arena
	members := seq(10)
	a.RandomPartition(members, 3, rng.New(5))
	for i, id := range members {
		if id != i {
			t.Fatalf("members[%d] = %d after partition, want %d", i, id, i)
		}
	}
}

// bernoulliBin is the reference probabilistic bin: one r.Bernoulli(q)
// per member, in member order — the draw loop AppendProbabilisticBin's
// threshold kernel must reproduce exactly.
func bernoulliBin(dst, members []int, q float64, r *rng.Source) []int {
	for _, id := range members {
		if r.Bernoulli(q) {
			dst = append(dst, id)
		}
	}
	return dst
}

// The threshold kernel must pick the same members as the Bernoulli loop
// and leave the stream where the loop leaves it, for every q the callers
// use (2^-j, 2/t, 1/b) and for the no-draw edges q <= 0 and q >= 1.
func TestQuickAppendProbabilisticBinMatchesBernoulliLoop(t *testing.T) {
	buf := make([]int, 0, 8)
	f := func(seed uint64, nRaw uint8, qSel uint16) bool {
		n := int(nRaw)
		var q float64
		switch qSel % 5 {
		case 0:
			q = math.Ldexp(1, -int(qSel/5%12)) // 2^-j, including j = 0
		case 1:
			q = 2 / float64(qSel/5%200+1) // 2/t, above 1 for t = 1
		case 2:
			q = float64(qSel) / 65535 // anywhere in [0, 1]
		case 3:
			q = -float64(qSel) / 100 // never joins, draws nothing
		default:
			q = 1 + float64(qSel)/100 // always joins, draws nothing
		}
		members := seq(n)
		ref, got := rng.New(seed), rng.New(seed)
		want := bernoulliBin([]int{-1}, members, q, ref)
		buf = append(buf[:0], -1) // appends after an existing prefix
		buf = AppendProbabilisticBin(buf, members, q, got)
		if len(buf) != len(want) {
			t.Logf("q=%v n=%d: %d members, want %d", q, n, len(buf)-1, len(want)-1)
			return false
		}
		for i := range want {
			if buf[i] != want[i] {
				return false
			}
		}
		if a, b := ref.Uint64(), got.Uint64(); a != b {
			t.Logf("q=%v n=%d: stream diverged after the bin", q, n)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestAppendProbabilisticBinNaNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AppendProbabilisticBin(q = NaN) did not panic")
		}
	}()
	AppendProbabilisticBin(nil, seq(4), math.NaN(), rng.New(1))
}
