package binning

import "testing"

// TestStreamerPermutedIsPartition: the permuted mode must yield a valid
// exact-size partition of the ranks [0, m) — every rank exactly once,
// bin sizes matching chunkBounds, and Place naming each rank's bin and
// its position in AppendBin order — deterministically in the key.
func TestStreamerPermutedIsPartition(t *testing.T) {
	var st Streamer
	var buf []int
	for _, m := range []int{0, 1, 2, 3, 7, 64, 100, 1000, 4097} {
		for _, b := range []int{1, 2, 3, 32, 100} {
			for key := uint64(0); key < 3; key++ {
				st.StartPermuted(m, b, key)
				seen := make([]bool, m)
				total := 0
				for i := 0; i < b; i++ {
					buf = st.AppendBin(i, buf[:0])
					if len(buf) != st.BinSize(i) {
						t.Fatalf("m=%d b=%d bin %d: len %d want %d", m, b, i, len(buf), st.BinSize(i))
					}
					for k, j := range buf {
						if j < 0 || j >= m || seen[j] {
							t.Fatalf("m=%d b=%d key=%d: rank %d invalid or repeated", m, b, key, j)
						}
						seen[j] = true
						// Bin i holds positions total..total+|bin|-1, listed
						// in ascending order by AppendBin.
						if bin, pos := st.Place(j); bin != i || pos != total+k {
							t.Fatalf("m=%d b=%d key=%d: Place(%d)=(%d, %d) want (%d, %d)", m, b, key, j, bin, pos, i, total+k)
						}
					}
					total += len(buf)
				}
				if total != m {
					t.Fatalf("m=%d b=%d key=%d: %d ranks streamed", m, b, key, total)
				}
				// Replay: the partition is a pure function of Start state.
				again := st.AppendBin(0, nil)
				first := st.AppendBin(0, nil)
				for j := range first {
					if again[j] != first[j] {
						t.Fatalf("m=%d b=%d key=%d: replay diverged", m, b, key)
					}
				}
			}
		}
	}
}

// TestStreamerPermutedKeySensitivity: different keys should give
// different partitions (for any m large enough that collisions are
// vanishingly unlikely) — the key really is the round's randomness.
func TestStreamerPermutedKeySensitivity(t *testing.T) {
	var a, b Streamer
	a.StartPermuted(1000, 10, 1)
	b.StartPermuted(1000, 10, 2)
	x := a.AppendBin(0, nil)
	y := b.AppendBin(0, nil)
	same := true
	for i := range x {
		if x[i] != y[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("two keys produced an identical first bin")
	}
}

// TestFeistelBijective exercises the raw permutation: apply must be a
// bijection on [0, m) and invert its exact inverse.
func TestFeistelBijective(t *testing.T) {
	for _, m := range []int{1, 2, 5, 16, 17, 63, 64, 65, 1000, 1 << 14} {
		f := newFeistel(m, 0xdeadbeef)
		seen := make([]bool, m)
		for j := 0; j < m; j++ {
			p := f.apply(j)
			if p < 0 || p >= m || seen[p] {
				t.Fatalf("m=%d: apply(%d)=%d not a bijection", m, j, p)
			}
			seen[p] = true
			if back := f.invert(p); back != j {
				t.Fatalf("m=%d: invert(apply(%d))=%d", m, j, back)
			}
		}
	}
}
