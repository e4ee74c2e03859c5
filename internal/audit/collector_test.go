package audit

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
)

func wrongVerdict(causal int) Verdict {
	return Verdict{
		Decision: false, Truth: true, TrueX: 8,
		Outcome: OutcomeWrongLoss, CausalPoll: causal, CausalClass: ClassFalseNegative,
		Polls: 10,
	}
}

func correctVerdict() Verdict {
	return Verdict{Decision: true, Truth: true, TrueX: 8, Outcome: OutcomeCorrect, CausalPoll: -1, Polls: 10}
}

// TestAddAtFlushOrder: rows inserted out of order must come out of the
// dump in trial-index order, exactly as a serial Add loop would emit them.
func TestAddAtFlushOrder(t *testing.T) {
	serial := &Collector{}
	indexed := &Collector{}
	const trials = 9
	for i := 0; i < trials; i++ {
		v := correctVerdict()
		if i%2 == 0 {
			v = wrongVerdict(i)
		}
		serial.Add(fmt.Sprintf("trial=%d", i), v)
	}
	for _, i := range []int{4, 8, 0, 6, 2, 5, 1, 7, 3} {
		v := correctVerdict()
		if i%2 == 0 {
			v = wrongVerdict(i)
		}
		indexed.AddAt(i, fmt.Sprintf("trial=%d", i), v)
	}
	indexed.Flush()
	if got, want := indexed.Summary(), serial.Summary(); got != want {
		t.Fatalf("indexed dump differs from serial dump:\n--- serial ---\n%s--- indexed ---\n%s", want, got)
	}
}

// TestForkFlushOrder: forked batches fill concurrently (run under -race);
// their counters fold at once, and one Flush of the parent lists the
// forks' rows in fork order, each fork's in trial order, exactly as a
// serial Add loop would. A discarded fork keeps its counters and drops
// its rows.
func TestForkFlushOrder(t *testing.T) {
	const points, trials = 4, 6
	serial, forked := &Collector{}, &Collector{}
	forks := make([]*Collector, points)
	for p := range forks {
		forks[p] = forked.Fork(p)
	}
	var wg sync.WaitGroup
	for p := points - 1; p >= 0; p-- {
		for i := trials - 1; i >= 0; i-- {
			wg.Add(1)
			go func(p, i int) {
				defer wg.Done()
				forks[p].AddAt(i, fmt.Sprintf("p=%d/trial=%d", p, i), wrongVerdict(i))
			}(p, i)
		}
	}
	wg.Wait()
	for p := 0; p < points; p++ {
		for i := 0; i < trials; i++ {
			if p == 2 {
				serial.fold(wrongVerdict(i)) // counted, rows discarded
				continue
			}
			serial.Add(fmt.Sprintf("p=%d/trial=%d", p, i), wrongVerdict(i))
		}
	}
	if got := forked.Stats().Sessions; got != points*trials {
		t.Fatalf("counters before Flush: %d sessions, want %d", got, points*trials)
	}
	forks[2].Discard()
	forked.Flush()
	if got, want := forked.Summary(), serial.Summary(); got != want {
		t.Fatalf("forked dump differs from serial dump:\n--- serial ---\n%s--- forked ---\n%s", want, got)
	}
	if got, want := forked.Stats().Wrong, serial.Stats().Wrong; !slices.Equal(got, want) {
		t.Fatalf("rows after Flush:\n%v\nwant\n%v", got, want)
	}
}

// TestAddAtConcurrent folds verdicts from many goroutines (run under
// -race) and checks both the counters and the flushed row order.
func TestAddAtConcurrent(t *testing.T) {
	c := &Collector{}
	const trials = 100
	var wg sync.WaitGroup
	for i := 0; i < trials; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%10 == 0 {
				c.AddAt(i, fmt.Sprintf("trial=%d", i), wrongVerdict(i))
			} else {
				c.AddAt(i, fmt.Sprintf("trial=%d", i), correctVerdict())
			}
		}(i)
	}
	wg.Wait()
	c.Flush()
	s := c.Stats()
	if s.Sessions != trials || s.Polls != 10*trials {
		t.Fatalf("sessions=%d polls=%d", s.Sessions, s.Polls)
	}
	if len(s.Wrong) != trials/10 {
		t.Fatalf("wrong rows = %d, want %d", len(s.Wrong), trials/10)
	}
	for j, w := range s.Wrong {
		if want := fmt.Sprintf("trial=%d", j*10); w.Session != want {
			t.Fatalf("row %d is %q, want %q", j, w.Session, want)
		}
	}
}

// TestFlushBatches: indices restart every batch; per-batch flushing must
// keep rows grouped by batch, ordered within each.
func TestFlushBatches(t *testing.T) {
	c := &Collector{}
	for batch := 0; batch < 2; batch++ {
		for _, i := range []int{1, 0} {
			c.AddAt(i, fmt.Sprintf("batch=%d/trial=%d", batch, i), wrongVerdict(i))
		}
		c.Flush()
	}
	s := c.Stats()
	want := []string{"batch=0/trial=0", "batch=0/trial=1", "batch=1/trial=0", "batch=1/trial=1"}
	if len(s.Wrong) != len(want) {
		t.Fatalf("rows = %d, want %d", len(s.Wrong), len(want))
	}
	for j, w := range s.Wrong {
		if w.Session != want[j] {
			t.Fatalf("row %d is %q, want %q", j, w.Session, want[j])
		}
	}
}

func TestDiscardDropsPending(t *testing.T) {
	c := &Collector{}
	c.AddAt(0, "trial=0", wrongVerdict(0))
	c.Discard()
	c.Flush()
	if s := c.Stats(); len(s.Wrong) != 0 {
		t.Fatalf("discarded rows leaked: %+v", s.Wrong)
	}
}

func TestAddAtDuplicateIndexPanics(t *testing.T) {
	c := &Collector{}
	c.AddAt(3, "trial=3", wrongVerdict(0))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddAt index did not panic")
		}
	}()
	c.AddAt(3, "trial=3", wrongVerdict(0))
}

// TestVoidAccounting: voided sessions count separately from graded ones
// and show up in the summary, so sessions graded + voided always equals
// sessions started.
func TestVoidAccounting(t *testing.T) {
	c := &Collector{}
	c.Add("trial=0", correctVerdict())
	c.Void("trial=1")
	s := c.Stats()
	if s.Sessions != 1 || s.Voided != 1 {
		t.Fatalf("sessions=%d voided=%d, want 1/1", s.Sessions, s.Voided)
	}
	if s.Accuracy() != 1 {
		t.Fatalf("voided session polluted accuracy: %v", s.Accuracy())
	}
	if !strings.Contains(c.Summary(), "voided: 1") {
		t.Fatalf("summary missing voided line:\n%s", c.Summary())
	}
}
