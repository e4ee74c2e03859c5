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

// channel returns a channel over {0..n-1} with the listed positives.
func channel(k, n int, positives ...int) *Channel {
	ch := new(Channel)
	ch.Reset(k, n, positives)
	return ch
}

// randomChannel draws x positives out of {0..n-1}.
func randomChannel(k, n, x int, r *rng.Source) *Channel {
	return channel(k, n, r.Sample(n, x)...)
}

func TestChannelExactBelowK(t *testing.T) {
	ch := &countingQuerier{Querier: channel(4, 8, 1, 2, 3)}
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
	ch := channel(2, 8, 1, 2, 3)
	resp := ch.Query([]int{1, 2, 3})
	if !resp.Saturated || resp.Count != 2 {
		t.Fatalf("3 positives under k=2: %+v", resp)
	}
}

func TestChannelKOneIsRCD(t *testing.T) {
	// k=1 degenerates to the paper's 1+ model: silence vs activity.
	ch := channel(1, 8, 5)
	if resp := ch.Query([]int{5, 6}); !resp.Saturated {
		t.Fatal("activity not saturated under k=1")
	}
	if resp := ch.Query([]int{6, 7}); resp.Saturated || resp.Count != 0 {
		t.Fatal("silence wrong under k=1")
	}
}

func TestResetPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("k=0 accepted")
		}
	}()
	new(Channel).Reset(0, 8, nil)
}

func TestThresholdCorrect(t *testing.T) {
	for _, k := range []int{1, 2, 4, 8} {
		for _, tc := range []struct{ n, th, x int }{
			{32, 8, 0}, {32, 8, 7}, {32, 8, 8}, {32, 8, 9}, {32, 8, 32},
			{64, 1, 0}, {64, 1, 1}, {64, 64, 64}, {64, 64, 63}, {1, 1, 1},
		} {
			for seed := uint64(0); seed < 3; seed++ {
				r := rng.New(seed)
				ch := randomChannel(k, tc.n, tc.x, r.Split(1))
				res, err := Threshold(ch, tc.n, tc.th, r.Split(2), nil)
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

// TestPooledSessionsMatchFresh: one Channel and Scratch reused across
// sessions of varying k, n and x decide and cost exactly what fresh ones
// do, and a warm session allocates nothing.
func TestPooledSessionsMatchFresh(t *testing.T) {
	var (
		ch  Channel
		sc  Scratch
		ids []int
	)
	root := rng.New(77)
	for i := 0; i < 300; i++ {
		k, n := 1+i%8, 1+(i*13)%130
		x, th := (i*7)%(n+1), (i*3)%(n+2)
		r := root.Split(uint64(i))
		want, err := Threshold(randomChannel(k, n, x, r.Split(1)), n, th, r.Split(2), nil)
		if err != nil {
			t.Fatal(err)
		}
		ids, _ = r.Split(1).SampleInto(n, x, ids, nil)
		ch.Reset(k, n, ids)
		got, err := Threshold(&ch, n, th, r.Split(2), &sc)
		if err != nil || got != want {
			t.Fatalf("k=%d n=%d t=%d x=%d: pooled %+v (%v), fresh %+v", k, n, th, x, got, err, want)
		}
	}
	ids, _ = rng.New(1).SampleInto(128, 16, ids, nil)
	r := rng.New(2)
	allocs := testing.AllocsPerRun(50, func() {
		ch.Reset(4, 128, ids)
		if _, err := Threshold(&ch, 128, 16, r, &sc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm pooled session: %v allocs, want 0", allocs)
	}
}

func TestThresholdTrivial(t *testing.T) {
	r := rng.New(1)
	ch := randomChannel(2, 8, 3, r)
	res, err := Threshold(ch, 8, 0, r, nil)
	if err != nil || !res.Decision || res.Queries != 0 {
		t.Fatalf("t=0: %+v, %v", res, err)
	}
	res, err = Threshold(ch, 8, 9, r, nil)
	if err != nil || res.Decision || res.Queries != 0 {
		t.Fatalf("t>n: %+v, %v", res, err)
	}
	if _, err := Threshold(ch, -1, 2, r, nil); err == nil {
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
			ch := randomChannel(k, n, x, r.Split(1))
			res, err := Threshold(ch, n, th, r.Split(2), nil)
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
		ch := randomChannel(k, n, x, r.Split(1))
		res, err := Threshold(ch, n, th, r.Split(2), nil)
		return err == nil && res.Decision == (x >= th)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
