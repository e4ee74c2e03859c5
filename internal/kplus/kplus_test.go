package kplus

import (
	"testing"
	"testing/quick"

	"tcast/internal/rng"
)

// countingQuerier counts the polls it forwards to the wrapped Querier.
type countingQuerier struct {
	Querier
	polls int
}

func (c *countingQuerier) Query(bin []int) Response {
	c.polls++
	return c.Querier.Query(bin)
}

func TestChannelExactBelowK(t *testing.T) {
	ch := &countingQuerier{Querier: NewChannel(4, []int{1, 2, 3})}
	resp := ch.Query([]int{0, 1, 2, 3, 4})
	if resp.Saturated || resp.Count != 3 {
		t.Fatalf("3 positives under k=4: %+v", resp)
	}
	resp = ch.Query([]int{0, 4, 5})
	if resp.Saturated || resp.Count != 0 {
		t.Fatalf("empty bin: %+v", resp)
	}
	if ch.polls != 2 {
		t.Fatalf("polls = %d", ch.polls)
	}
}

func TestChannelSaturates(t *testing.T) {
	ch := NewChannel(2, []int{1, 2, 3})
	resp := ch.Query([]int{1, 2, 3})
	if !resp.Saturated || resp.Count != 2 {
		t.Fatalf("3 positives under k=2: %+v", resp)
	}
}

func TestChannelKOneIsRCD(t *testing.T) {
	// k=1 degenerates to the paper's 1+ model: silence vs activity.
	ch := NewChannel(1, []int{5})
	if resp := ch.Query([]int{5, 6}); !resp.Saturated {
		t.Fatal("activity not saturated under k=1")
	}
	if resp := ch.Query([]int{6, 7}); resp.Saturated || resp.Count != 0 {
		t.Fatal("silence wrong under k=1")
	}
}

func TestNewChannelPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("k=0 accepted")
		}
	}()
	NewChannel(0, nil)
}

func TestThresholdCorrect(t *testing.T) {
	for _, k := range []int{1, 2, 4, 8} {
		for _, tc := range []struct{ n, th, x int }{
			{32, 8, 0}, {32, 8, 7}, {32, 8, 8}, {32, 8, 9}, {32, 8, 32},
			{64, 1, 0}, {64, 1, 1}, {64, 64, 64}, {64, 64, 63}, {1, 1, 1},
		} {
			for seed := uint64(0); seed < 3; seed++ {
				r := rng.New(seed)
				ch := RandomChannel(k, tc.n, tc.x, r.Split(1))
				res, err := Threshold(ch, tc.n, tc.th, r.Split(2))
				if err != nil {
					t.Fatal(err)
				}
				if res.Decision != (tc.x >= tc.th) {
					t.Fatalf("k=%d n=%d t=%d x=%d: decision %v", k, tc.n, tc.th, tc.x, res.Decision)
				}
			}
		}
	}
}

func TestThresholdTrivial(t *testing.T) {
	r := rng.New(1)
	ch := RandomChannel(2, 8, 3, r)
	res, err := Threshold(ch, 8, 0, r)
	if err != nil || !res.Decision || res.Queries != 0 {
		t.Fatalf("t=0: %+v, %v", res, err)
	}
	res, err = Threshold(ch, 8, 9, r)
	if err != nil || res.Decision || res.Queries != 0 {
		t.Fatalf("t>n: %+v, %v", res, err)
	}
	if _, err := Threshold(ch, -1, 2, r); err == nil {
		t.Fatal("negative n accepted")
	}
}

func TestLargerKThresholdCheaperNearT(t *testing.T) {
	// Near x ≈ t — the 1+ model's hard case — k+ radios with k near t
	// decide far faster.
	const n, th, x, runs = 128, 16, 16, 200
	avg := func(k int) float64 {
		total := 0
		root := rng.New(uint64(200 + k))
		for i := 0; i < runs; i++ {
			r := root.Split(uint64(i))
			ch := RandomChannel(k, n, x, r.Split(1))
			res, err := Threshold(ch, n, th, r.Split(2))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Decision {
				t.Fatal("wrong decision")
			}
			total += res.Queries
		}
		return float64(total) / runs
	}
	if c16, c1 := avg(16), avg(1); c16 >= c1 {
		t.Fatalf("k=16 (%v) not cheaper than k=1 (%v) at x=t", c16, c1)
	}
}

func TestQuickThresholdAndCount(t *testing.T) {
	f := func(seed uint64, kRaw, nRaw, tRaw, xRaw uint8) bool {
		k := int(kRaw%8) + 1
		n := int(nRaw%64) + 1
		th := int(tRaw) % (n + 2)
		x := int(xRaw) % (n + 1)
		r := rng.New(seed)
		ch := RandomChannel(k, n, x, r.Split(1))
		res, err := Threshold(ch, n, th, r.Split(2))
		return err == nil && res.Decision == (x >= th)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
