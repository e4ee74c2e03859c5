package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"tcast/internal/core"
	"tcast/internal/fastsim"
	"tcast/internal/metrics"
	"tcast/internal/rng"
	"tcast/internal/session"
)

// drain tears a test pool down with a bounded context.
func drain(t *testing.T, p *Pool) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

// waitParked blocks until want sessions are parked at f's medium — the
// fixed pre-Open state a held field's determinism depends on.
func waitParked(t *testing.T, f *Field, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for f.Parked() != want {
		if time.Now().After(deadline) {
			t.Fatalf("parked = %d, want %d", f.Parked(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// algorithmFor resolves a wire algorithm name the way a served session
// does, as a factory over the reference channel (the Oracle reads it).
func algorithmFor(name string) (func(*fastsim.Channel) core.Algorithm, string, error) {
	a, err := session.Algorithm(name, nil)
	if err != nil {
		return nil, "", err
	}
	return func(ch *fastsim.Channel) core.Algorithm {
		a, _ := session.Algorithm(name, ch)
		return a
	}, a.Name(), nil
}

// TestSessionMatchesTcastsim is the acceptance bar for the medium
// wrapper: a single admitted session's verdict and slot cost must be
// byte-identical to the same (seed, trial) built the way tcastsim builds
// it — channel from Split(1), algorithm randomness from Split(2), no
// medium in the stack.
func TestSessionMatchesTcastsim(t *testing.T) {
	cases := []struct {
		alg   string
		n, tt int
		x     int
		seed  uint64
		trial int
	}{
		{"2tbins", 128, 16, 20, 7, 0},
		{"2tbins", 128, 16, 12, 2011, 3},
		{"exp", 256, 32, 40, 42, 1},
		{"abns-t", 128, 16, 16, 9, 0},
		{"abns-2t", 128, 16, 8, 11, 2},
		{"probabns", 128, 16, 24, 13, 0},
		{"oracle", 128, 16, 15, 17, 0},
	}
	p := NewPool(Config{})
	defer drain(t, p)
	for _, c := range cases {
		c := c
		t.Run(fmt.Sprintf("%s/x=%d/seed=%d", c.alg, c.x, c.seed), func(t *testing.T) {
			// Reference: tcastsim's trial derivation, contention-free.
			fac, _, err := algorithmFor(c.alg)
			if err != nil {
				t.Fatal(err)
			}
			root := rng.New(c.seed)
			var src rng.Source
			root.SplitInto(uint64(c.trial), &src)
			ch, _ := fastsim.RandomPositives(c.n, c.x, fastsim.DefaultConfig(), src.Split(1))
			want, err := fac(ch).Run(ch, c.n, c.tt, src.Split(2))
			if err != nil {
				t.Fatal(err)
			}

			s, err := p.Submit(Spec{N: c.n, T: c.tt, X: c.x, Alg: c.alg,
				Seed: c.seed, Trial: c.trial, Field: -1}, "identity")
			if err != nil {
				t.Fatal(err)
			}
			<-s.Done()
			r, err := s.Result()
			if err != nil {
				t.Fatalf("session error: %v", err)
			}
			if r.Decision != want.Decision || r.Polls != want.Queries || r.Rounds != want.Rounds {
				t.Fatalf("served (decision=%v polls=%d rounds=%d) != tcastsim (decision=%v polls=%d rounds=%d)",
					r.Decision, r.Polls, r.Rounds, want.Decision, want.Queries, want.Rounds)
			}
			// fastsim has no slot meter below the medium: a poll is one
			// slot, so the session's own cost equals its poll count.
			if r.SessionSlots != int64(want.Queries) || r.MediumSlots != int64(want.Queries) {
				t.Fatalf("slots: session=%d medium=%d, want %d", r.SessionSlots, r.MediumSlots, want.Queries)
			}
			if r.WaitedSlots != 0 {
				t.Fatalf("uncontended session waited %d slots", r.WaitedSlots)
			}
			if r.SpanSlots != r.MediumSlots+r.WaitedSlots {
				t.Fatalf("span=%d != medium(%d)+waited(%d)", r.SpanSlots, r.MediumSlots, r.WaitedSlots)
			}
		})
	}
}

// contendedLedger runs a fixed fleet of sessions on one held field at
// the given GOMAXPROCS and returns the JSON of their results in
// admission order.
func contendedLedger(t *testing.T, procs, sessions int) []byte {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	p := NewPool(Config{Fields: 1, MaxActive: sessions, Hold: true})
	defer drain(t, p)
	algs := []string{"2tbins", "exp", "abns-t", "probabns"}
	subs := make([]*Session, 0, sessions)
	for i := 0; i < sessions; i++ {
		s, err := p.Submit(Spec{
			N: 128, T: 16, X: 8 + 2*i, Alg: algs[i%len(algs)],
			Seed: uint64(100 + i), Field: 0, Audit: true,
		}, fmt.Sprintf("client-%d", i%3))
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, s)
	}
	waitParked(t, p.fields[0], int64(sessions))
	p.Open()
	results := make([]Result, 0, sessions)
	for _, s := range subs {
		<-s.Done()
		r, err := s.Result()
		if err != nil {
			t.Fatalf("%s: %v", s.ID, err)
		}
		results = append(results, *r)
	}
	b, err := json.Marshal(results)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSchedulerDeterministic pins the tentpole property: the same seeds
// and arrival order produce byte-identical verdicts and slot ledgers
// regardless of GOMAXPROCS. Run under -race in CI, this is also the
// scheduler's data-race canary.
func TestSchedulerDeterministic(t *testing.T) {
	const sessions = 12
	want := contendedLedger(t, 1, sessions)
	for _, procs := range []int{2, runtime.NumCPU()} {
		got := contendedLedger(t, procs, sessions)
		if string(got) != string(want) {
			t.Fatalf("ledger differs at GOMAXPROCS=%d:\n%s\nvs GOMAXPROCS=1:\n%s", procs, got, want)
		}
	}
	// The ledger must show real contention: total waiting is positive and
	// every session's span decomposes into its own occupancy + waiting.
	var results []Result
	if err := json.Unmarshal(want, &results); err != nil {
		t.Fatal(err)
	}
	var waited int64
	for i, r := range results {
		waited += r.WaitedSlots
		if r.SpanSlots != r.MediumSlots+r.WaitedSlots {
			t.Fatalf("session %d: span=%d != medium(%d)+waited(%d)", i, r.SpanSlots, r.MediumSlots, r.WaitedSlots)
		}
		if !r.Correct {
			t.Fatalf("session %d: outcome %s under contention", i, r.Outcome)
		}
	}
	if waited == 0 {
		t.Fatal("no session waited: the fleet did not contend")
	}
}

// TestContentionPreservesVerdict verifies contention only reprices —
// sessions sharing a medium return the same decision, polls and own
// slots as the same seeds served alone.
func TestContentionPreservesVerdict(t *testing.T) {
	specs := make([]Spec, 6)
	for i := range specs {
		specs[i] = Spec{N: 128, T: 16, X: 10 + 3*i, Alg: "2tbins", Seed: uint64(500 + i), Field: 0}
	}

	alone := make([]Result, len(specs))
	for i, sp := range specs {
		p := NewPool(Config{Fields: 1})
		s, err := p.Submit(sp, "alone")
		if err != nil {
			t.Fatal(err)
		}
		<-s.Done()
		r, err := s.Result()
		if err != nil {
			t.Fatal(err)
		}
		alone[i] = *r
		drain(t, p)
	}

	p := NewPool(Config{Fields: 1, MaxActive: len(specs), Hold: true})
	defer drain(t, p)
	subs := make([]*Session, len(specs))
	for i, sp := range specs {
		s, err := p.Submit(sp, "crowd")
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = s
	}
	waitParked(t, p.fields[0], int64(len(specs)))
	p.Open()
	for i, s := range subs {
		<-s.Done()
		r, err := s.Result()
		if err != nil {
			t.Fatal(err)
		}
		if r.Decision != alone[i].Decision || r.Polls != alone[i].Polls ||
			r.SessionSlots != alone[i].SessionSlots || r.MediumSlots != alone[i].MediumSlots {
			t.Fatalf("session %d perturbed by contention: contended %+v, alone %+v", i, *r, alone[i])
		}
	}
}

// TestOverloadShedding verifies the bounded queue: past MaxActive +
// MaxQueue, submissions shed with an OverloadError carrying Retry-After,
// already-admitted sessions still finish, and capacity frees once they
// do.
func TestOverloadShedding(t *testing.T) {
	reg := metrics.New()
	p := NewPool(Config{Fields: 1, MaxActive: 1, MaxQueue: 2, Hold: true, Registry: reg})
	defer drain(t, p)

	admitted := make([]*Session, 0, 3)
	for i := 0; i < 3; i++ {
		s, err := p.Submit(Spec{N: 64, T: 8, X: 10, Seed: uint64(i), Field: 0}, fmt.Sprintf("c%d", i))
		if err != nil {
			t.Fatalf("submission %d shed below the bound: %v", i, err)
		}
		admitted = append(admitted, s)
	}
	_, err := p.Submit(Spec{N: 64, T: 8, X: 10, Seed: 99, Field: 0}, "c9")
	var over *OverloadError
	if !errors.As(err, &over) {
		t.Fatalf("4th submission: got %v, want OverloadError", err)
	}
	if over.RetryAfter <= 0 {
		t.Fatalf("OverloadError.RetryAfter = %v", over.RetryAfter)
	}

	// Shedding must not starve the admitted: open the field and all three
	// finish.
	p.Open()
	for i, s := range admitted {
		select {
		case <-s.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("admitted session %d starved after shedding", i)
		}
		if _, err := s.Result(); err != nil {
			t.Fatalf("admitted session %d: %v", i, err)
		}
	}

	// Capacity freed: the next submission is admitted again.
	s, err := p.Submit(Spec{N: 64, T: 8, X: 10, Seed: 100, Field: 0}, "c9")
	if err != nil {
		t.Fatalf("post-drain submission shed: %v", err)
	}
	<-s.Done()

	if v := reg.Counter("serve_shed_total", "reason", "queue").Value(); v != 1 {
		t.Fatalf("serve_shed_total{reason=queue} = %v, want 1", v)
	}
}

// TestPerClientLimit verifies one client cannot monopolize admission.
func TestPerClientLimit(t *testing.T) {
	p := NewPool(Config{Fields: 1, MaxActive: 1, MaxQueue: 8, MaxPerClient: 2, Hold: true})
	for i := 0; i < 2; i++ {
		if _, err := p.Submit(Spec{N: 64, T: 8, X: 10, Seed: uint64(i)}, "greedy"); err != nil {
			t.Fatal(err)
		}
	}
	_, err := p.Submit(Spec{N: 64, T: 8, X: 10, Seed: 9}, "greedy")
	var over *OverloadError
	if !errors.As(err, &over) {
		t.Fatalf("3rd session for one client: got %v, want OverloadError", err)
	}
	if _, err := p.Submit(Spec{N: 64, T: 8, X: 10, Seed: 10}, "patient"); err != nil {
		t.Fatalf("other client shed by greedy one: %v", err)
	}
	p.Open()
	drain(t, p)
}

// TestAdmissionReleasedByDone: a client that waits for each verdict
// before submitting again never has more than one session in flight, so
// it must never be shed at a one-session limit. The admission slot has
// to be free by the time Done() fires, not some time after.
func TestAdmissionReleasedByDone(t *testing.T) {
	p := NewPool(Config{Fields: 1, MaxActive: 1, MaxPerClient: 1})
	defer drain(t, p)
	for i := 0; i < 500; i++ {
		s, err := p.Submit(Spec{N: 64, T: 8, X: 10, Seed: uint64(i), Field: 0}, "closed-loop")
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		<-s.Done()
	}
}

// TestDrainRejectsAndFinishes verifies Drain's contract: in-flight work
// completes, later submissions get ErrDraining.
func TestDrainRejectsAndFinishes(t *testing.T) {
	p := NewPool(Config{Fields: 2})
	subs := make([]*Session, 0, 8)
	for i := 0; i < 8; i++ {
		s, err := p.Submit(Spec{N: 128, T: 16, X: 20, Seed: uint64(i)}, "drainer")
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, s)
	}
	drain(t, p)
	for i, s := range subs {
		if !s.State().Terminal() {
			t.Fatalf("session %d not finished after drain: %s", i, s.State())
		}
	}
	if _, err := p.Submit(Spec{N: 64, T: 8, X: 10}, "late"); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submission: got %v, want ErrDraining", err)
	}
}

// TestResolveSpecValidation covers the admission-time request checks.
func TestResolveSpecValidation(t *testing.T) {
	p := NewPool(Config{MaxN: 1024})
	defer drain(t, p)
	bad := []Spec{
		{N: 2048, T: 16, X: 1},          // n over MaxN
		{N: 128, T: 0, X: 1, Trial: -1}, // negative trial (t defaults first)
		{N: 128, T: 200, X: 1},          // t > n
		{N: 128, T: 16, X: 200},         // x > n
		{N: 128, T: 16, X: 1, Alg: "magic"},
		{N: 128, T: 16, X: 1, Model: "3+"},
		{N: 128, T: 16, X: 1, Faults: "burst=nope"},
		{N: 128, T: 16, X: 1, Retries: -1},
		{N: 128, T: 16, X: 1, Field: 7}, // outside the pool
	}
	for i, sp := range bad {
		if _, err := p.Submit(sp, "bad"); err == nil {
			t.Fatalf("bad spec %d admitted: %+v", i, sp)
		}
	}
	// Defaults fill a zero spec (Field 0 means pinned field 0 — valid).
	s, err := p.Submit(Spec{Field: -1}, "good")
	if err != nil {
		t.Fatalf("zero spec rejected: %v", err)
	}
	<-s.Done()
	if s.Spec.N == 0 || s.Spec.Alg == "" || s.Spec.Model == "" {
		t.Fatalf("defaults not applied: %+v", s.Spec)
	}
}

// TestFaultedAuditedSession exercises the full stack — faults below the
// medium, retry middleware, audit grading — through the pool.
func TestFaultedAuditedSession(t *testing.T) {
	p := NewPool(Config{})
	defer drain(t, p)
	s, err := p.Submit(Spec{
		N: 128, T: 16, X: 24, Seed: 31, Field: -1,
		Faults: "frac=0.2,burst=4", Retries: 2, Backoff: 1, Audit: true,
	}, "faulty")
	if err != nil {
		t.Fatal(err)
	}
	<-s.Done()
	r, err := s.Result()
	if err != nil {
		t.Fatalf("session failed: %v", err)
	}
	if r.Outcome == "" {
		t.Fatal("audited session has no outcome")
	}
	if r.SessionSlots < int64(r.Polls) {
		t.Fatalf("slots %d below polls %d despite retries", r.SessionSlots, r.Polls)
	}
}

// TestHistoryEviction verifies the session directory stays bounded.
func TestHistoryEviction(t *testing.T) {
	p := NewPool(Config{MaxHistory: 4})
	defer drain(t, p)
	ids := make([]string, 0, 10)
	for i := 0; i < 10; i++ {
		s, err := p.Submit(Spec{N: 64, T: 8, X: 10, Seed: uint64(i), Field: -1}, "hist")
		if err != nil {
			t.Fatal(err)
		}
		<-s.Done()
		ids = append(ids, s.ID)
	}
	p.mu.Lock()
	kept := len(p.byID)
	p.mu.Unlock()
	if kept > 4 {
		t.Fatalf("directory holds %d sessions, MaxHistory=4", kept)
	}
	if _, ok := p.Session(ids[0]); ok {
		t.Fatal("oldest session survived eviction")
	}
	if _, ok := p.Session(ids[len(ids)-1]); !ok {
		t.Fatal("newest session evicted")
	}
}
