package rng

import (
	"sync"
	"testing"
	"testing/quick"
)

// SplitInto must reseed the destination to exactly the state Split
// allocates, including clearing a stale normal spare.
func TestSplitIntoMatchesSplit(t *testing.T) {
	f := func(seed, label uint64) bool {
		parent := New(seed)
		want := parent.Split(label)
		got := *New(seed + 1)
		got.NormFloat64() // leave a spare behind to prove SplitInto clears it
		parent.SplitInto(label, &got)
		for i := 0; i < 20; i++ {
			if got.Uint64() != want.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Split derivation is read-only on the parent, so concurrent SplitInto
// calls from a shared root are safe; run under -race to enforce it.
func TestSplitIntoConcurrent(t *testing.T) {
	root := New(99)
	want := make([]uint64, 64)
	for i := range want {
		want[i] = root.Split(uint64(i)).Uint64()
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var src Source
			for i := w; i < 64; i += 4 {
				root.SplitInto(uint64(i), &src)
				if got := src.Uint64(); got != want[i] {
					t.Errorf("label %d: got %d, want %d", i, got, want[i])
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestSampleIntoMatchesSample(t *testing.T) {
	f := func(seed uint64, nRaw, kRaw uint8) bool {
		n := int(nRaw) + 1
		k := int(kRaw) % (n + 1)
		want := New(seed).Sample(n, k)
		var out, idx []int
		src := New(seed)
		out, idx = src.SampleInto(n, k, out, idx)
		if len(out) != len(want) {
			return false
		}
		for i := range want {
			if out[i] != want[i] {
				return false
			}
		}
		// Reuse the returned buffers: the second draw must match a fresh
		// source's and not reallocate for same-size requests.
		want2 := New(seed+1).Sample(n, k)
		src2 := New(seed + 1)
		out2, _ := src2.SampleInto(n, k, out, idx)
		for i := range want2 {
			if out2[i] != want2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestShuffleIntsMatchesShuffle(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)
		a := make([]int, n)
		b := make([]int, n)
		for i := 0; i < n; i++ {
			a[i], b[i] = i, i
		}
		ra, rb := New(seed), New(seed)
		// The reference Fisher-Yates loop: swap index i descending
		// from n-1 with a uniform j in [0, i].
		for i := n - 1; i > 0; i-- {
			j := ra.Intn(i + 1)
			a[i], a[j] = a[j], a[i]
		}
		rb.ShuffleInts(b)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		// Both sources must end at the same stream position.
		return ra.Uint64() == rb.Uint64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
