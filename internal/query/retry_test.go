package query

import "testing"

// scriptedQ answers polls from a fixed script of response kinds and counts
// its own polls; it optionally exposes a substrate slot meter.
type scriptedQ struct {
	script []Kind
	polls  int
	slots  int // simulated substrate meter: slots per poll
}

func (s *scriptedQ) Query(bin []int) Response {
	k := Active
	if s.polls < len(s.script) {
		k = s.script[s.polls]
	}
	s.polls++
	return Response{Kind: k}
}

func (s *scriptedQ) Traits() Traits { return Traits{} }

// meteredQ adds a Slots method pricing every poll at a fixed slot cost.
type meteredQ struct{ scriptedQ }

func (m *meteredQ) Slots() int { return m.polls * 3 }

func TestWithRetryInactivePassthrough(t *testing.T) {
	inner := &scriptedQ{}
	if got := WithRetry(inner, RetryPolicy{}); got != Querier(inner) {
		t.Fatal("inactive policy must return the querier unchanged")
	}
	if got := WithRetry(inner, RetryPolicy{Backoff: 5}); got != Querier(inner) {
		t.Fatal("backoff without retries is inactive")
	}
}

func TestRetryRepollsOnSilence(t *testing.T) {
	inner := &scriptedQ{script: []Kind{Empty, Empty, Active}}
	r := WithRetry(inner, RetryPolicy{MaxRetries: 2, Backoff: 1}).(*Retry)

	resp := r.Query([]int{1, 2})
	if resp.Kind != Active {
		t.Fatalf("Kind = %v, want Active after two retries", resp.Kind)
	}
	if inner.polls != 3 {
		t.Fatalf("inner polled %d times, want 3", inner.polls)
	}
	if r.attempts != 3 || r.Retries() != 2 || r.backoff != 2 {
		t.Fatalf("attempts/retries/backoff = %d/%d/%d, want 3/2/2",
			r.attempts, r.Retries(), r.backoff)
	}
}

func TestRetryExhaustsBudget(t *testing.T) {
	inner := &scriptedQ{script: []Kind{Empty, Empty, Empty, Empty}}
	r := WithRetry(inner, RetryPolicy{MaxRetries: 2}).(*Retry)
	resp := r.Query(nil)
	if resp.Kind != Empty {
		t.Fatalf("Kind = %v, want Empty after exhausting retries", resp.Kind)
	}
	if inner.polls != 3 {
		t.Fatalf("inner polled %d times, want 1 + 2 retries", inner.polls)
	}
}

func TestRetryStopsOnFirstAnswer(t *testing.T) {
	inner := &scriptedQ{script: []Kind{Active}}
	r := WithRetry(inner, RetryPolicy{MaxRetries: 5, Backoff: 2}).(*Retry)
	r.Query(nil)
	if inner.polls != 1 || r.backoff != 0 {
		t.Fatalf("polls/backoff = %d/%d, want 1/0 (no silence, no retries)", inner.polls, r.backoff)
	}
}

func TestRetrySlotsWithoutMeter(t *testing.T) {
	inner := &scriptedQ{script: []Kind{Empty, Active, Empty, Empty, Empty}}
	r := WithRetry(inner, RetryPolicy{MaxRetries: 2, Backoff: 3}).(*Retry)
	r.Query(nil) // 2 attempts, 1 backoff wait
	r.Query(nil) // 3 attempts, 2 backoff waits
	// No substrate meter: one slot per attempt plus the backoff idles.
	want := 5 + 3*3
	if got := r.Slots(); got != want {
		t.Fatalf("Slots = %d, want %d (5 attempts + 9 backoff)", got, want)
	}
}

func TestRetrySlotsWithSubstrateMeter(t *testing.T) {
	inner := &meteredQ{scriptedQ{script: []Kind{Empty, Active}}}
	r := WithRetry(inner, RetryPolicy{MaxRetries: 1, Backoff: 2}).(*Retry)
	r.Query(nil) // 2 attempts at 3 slots each on the substrate, 1 backoff
	if got, want := r.Slots(), 2*3+2; got != want {
		t.Fatalf("Slots = %d, want %d (substrate meter + backoff)", got, want)
	}
}

func TestRetryFindsMeterThroughChain(t *testing.T) {
	inner := &meteredQ{scriptedQ{script: []Kind{Active}}}
	// A plain wrapper between the retry layer and the metered substrate.
	wrapped := &passthroughQ{q: inner}
	r := WithRetry(wrapped, RetryPolicy{MaxRetries: 1}).(*Retry)
	r.Query(nil)
	if got := r.Slots(); got != 3 {
		t.Fatalf("Slots = %d, want 3 (meter discovered through the chain)", got)
	}
}

// passthroughQ is an anonymous middleware implementing Wrapper.
type passthroughQ struct{ q Querier }

func (p *passthroughQ) Query(bin []int) Response { return p.q.Query(bin) }
func (p *passthroughQ) Traits() Traits           { return p.q.Traits() }
func (p *passthroughQ) Unwrap() Querier          { return p.q }

// meterForwardingQ is middleware that memoizes the substrate meter at
// construction and exposes it as its own Slots() — the pattern the trace
// layer's span recorder uses. Placed above a Retry layer it reports the
// substrate's slots but is blind to that retry's backoff, which is exactly
// the counter the old first-match walk would misbind.
type meterForwardingQ struct {
	q     Querier
	meter interface{ Slots() int }
}

func (f *meterForwardingQ) Query(bin []int) Response { return f.q.Query(bin) }
func (f *meterForwardingQ) Traits() Traits           { return f.q.Traits() }
func (f *meterForwardingQ) Unwrap() Querier          { return f.q }
func (f *meterForwardingQ) Slots() int               { return f.meter.Slots() }

// TestStackedRetrySlotsThroughForwardingMeter is the pricing regression
// test for the meter-discovery fix: with a meter-forwarding middleware
// between two retry layers, binding the first Slots() found (the old
// behaviour) prices the session off the forwarded substrate count and
// silently drops the inner retry's backoff. The fix binds the innermost
// (substrate) meter and adds every retry layer's backoff explicitly.
func TestStackedRetrySlotsThroughForwardingMeter(t *testing.T) {
	// Substrate poll sequence: inner retry (MaxRetries 1) sees
	// Empty,Empty and gives up; outer retry backs off and re-polls, inner
	// sees Empty then Active. Substrate: 4 polls at 3 slots each.
	sub := &meteredQ{scriptedQ{script: []Kind{Empty, Empty, Empty, Active}}}
	inner := WithRetry(sub, RetryPolicy{MaxRetries: 1, Backoff: 2}).(*Retry)
	fwd := &meterForwardingQ{q: inner, meter: sub}
	outer := WithRetry(fwd, RetryPolicy{MaxRetries: 2, Backoff: 5}).(*Retry)

	if resp := outer.Query(nil); resp.Kind != Active {
		t.Fatalf("Kind = %v, want Active", resp.Kind)
	}
	if sub.polls != 4 {
		t.Fatalf("substrate polled %d times, want 4", sub.polls)
	}
	// True virtual time: 4 polls x 3 slots + inner backoff 2x2 + outer
	// backoff 1x5 = 21. The pre-fix walk bound fwd (substrate slots only)
	// and reported 12 + 5 = 17, losing the inner layer's backoff.
	if got, want := outer.Slots(), 4*3+2*2+5; got != want {
		t.Fatalf("Slots = %d, want %d (substrate + both layers' backoff)", got, want)
	}
}

// TestStackedRetrySlotsMetered pins the plain stacked total: two retry
// layers directly over a metered substrate price every attempt and every
// backoff wait exactly once.
func TestStackedRetrySlotsMetered(t *testing.T) {
	sub := &meteredQ{scriptedQ{script: []Kind{Empty, Empty, Empty, Active}}}
	inner := WithRetry(sub, RetryPolicy{MaxRetries: 1, Backoff: 2}).(*Retry)
	outer := WithRetry(inner, RetryPolicy{MaxRetries: 2, Backoff: 5}).(*Retry)
	outer.Query(nil)
	if got, want := outer.Slots(), 4*3+2*2+5; got != want {
		t.Fatalf("Slots = %d, want %d", got, want)
	}
}

// TestStackedRetrySlotsUnmetered pins the unmetered stacked total: with no
// substrate meter, polls are priced off the deepest retry layer's attempt
// count (the true downstream poll count), not the outer layer's.
func TestStackedRetrySlotsUnmetered(t *testing.T) {
	sub := &scriptedQ{script: []Kind{Empty, Empty, Empty, Active}}
	inner := WithRetry(sub, RetryPolicy{MaxRetries: 1, Backoff: 2}).(*Retry)
	outer := WithRetry(inner, RetryPolicy{MaxRetries: 2, Backoff: 5}).(*Retry)
	outer.Query(nil)
	// 4 substrate polls + 2x2 inner backoff + 1x5 outer backoff.
	if got, want := outer.Slots(), 4+2*2+5; got != want {
		t.Fatalf("Slots = %d, want %d", got, want)
	}
}

func TestDownstreamPoll(t *testing.T) {
	// Poll 0 takes 1 attempt, poll 1 takes 3 (two silences), poll 2 takes
	// 2; final attempts land at downstream indices 0, 3, 5.
	inner := &scriptedQ{script: []Kind{Active, Empty, Empty, Active, Empty, Active}}
	r := WithRetry(inner, RetryPolicy{MaxRetries: 2}).(*Retry)
	for i := 0; i < 3; i++ {
		r.Query(nil)
	}
	for i, want := range []int{0, 3, 5} {
		if got := r.DownstreamPoll(i); got != want {
			t.Fatalf("DownstreamPoll(%d) = %d, want %d", i, got, want)
		}
	}
	if got := r.DownstreamPoll(3); got != -1 {
		t.Fatalf("DownstreamPoll(3) = %d, want -1 (out of range)", got)
	}
	if got := r.DownstreamPoll(-1); got != -1 {
		t.Fatalf("DownstreamPoll(-1) = %d, want -1", got)
	}
}
