package session

import (
	"strings"
	"testing"

	"tcast/internal/audit"
	"tcast/internal/core"
	"tcast/internal/fastsim"
	"tcast/internal/faults"
	"tcast/internal/idset"
	"tcast/internal/obs"
	"tcast/internal/query"
	"tcast/internal/rng"
)

// handBuilt runs trial i of seed the way the harnesses built sessions by
// hand: channel from Split(1), injector from Split(9), algorithm from
// Split(2).
func handBuilt(t *testing.T, alg string, n, tt, x int, fcfg *faults.Config, retry query.RetryPolicy, seed uint64, i int) core.Result {
	t.Helper()
	r := rng.New(seed).Split(uint64(i))
	ch, _ := fastsim.RandomPositives(n, x, fastsim.DefaultConfig(), r.Split(1))
	a, err := Algorithm(alg, ch)
	if err != nil {
		t.Fatal(err)
	}
	var q query.Querier = ch
	if fcfg != nil {
		q = faults.New(q, *fcfg, n, r.Split(9))
	}
	res, err := a.Run(query.WithRetry(q, retry), n, tt, r.Split(2))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestMatchesHandBuiltStack pins the trial derivation and shows a reused
// Session runs bit-identically to a fresh stack, across algorithms and
// with the injector and retry layer on.
func TestMatchesHandBuiltStack(t *testing.T) {
	fcfg, err := faults.ParseSpec("burst=4,frac=0.2,churn=0.01")
	if err != nil {
		t.Fatal(err)
	}
	retry := query.RetryPolicy{MaxRetries: 2, Backoff: 1}
	var s Session // reused across every case
	for _, alg := range Algorithms() {
		for i := 0; i < 4; i++ {
			for _, faulted := range []bool{false, true} {
				sp := Spec{N: 96, T: 12, X: 8 + 2*i, Collision: fastsim.DefaultConfig(), Alg: alg, Trial: i}
				var want core.Result
				if faulted {
					sp.Faults, sp.Retry = &fcfg, retry
					want = handBuilt(t, alg, sp.N, sp.T, sp.X, &fcfg, retry, 5, i)
				} else {
					want = handBuilt(t, alg, sp.N, sp.T, sp.X, nil, query.RetryPolicy{}, 5, i)
				}
				if err := s.Reset(sp, rng.New(5).Split(uint64(i))); err != nil {
					t.Fatal(err)
				}
				got, err := s.Run()
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%s trial %d faulted=%v: session %+v, hand-built %+v", alg, i, faulted, got, want)
				}
			}
		}
	}
}

// TestCustomSubstrateStreams: a caller-built substrate draws from the
// trial stream's Split(1)/Split(2) and the algorithm moves to Split(3).
func TestCustomSubstrateStreams(t *testing.T) {
	const n, tt, x = 64, 8, 9
	r := rng.New(3).Split(0)
	ch, _ := fastsim.RandomPositives(n, x, fastsim.DefaultConfig(), r.Split(2))
	want, err := core.TwoTBins{}.Run(ch, n, tt, r.Split(3))
	if err != nil {
		t.Fatal(err)
	}
	var s Session
	err = s.Reset(Spec{
		N: n, T: tt, X: x, Algorithm: core.TwoTBins{},
		Substrate: func(r *rng.Source) (query.Querier, error) {
			ch, _ := fastsim.RandomPositives(n, x, fastsim.DefaultConfig(), r.Split(2))
			return ch, nil
		},
	}, rng.New(3).Split(0))
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("custom substrate: %+v, want %+v", got, want)
	}
}

// TestBareSessionAllocationFree: once warm, a reused bare session
// allocates nothing per trial.
func TestBareSessionAllocationFree(t *testing.T) {
	sp := Spec{N: 128, T: 16, X: 16, Collision: fastsim.DefaultConfig(), Algorithm: core.TwoTBins{}}
	root := rng.New(1)
	var s Session
	var r rng.Source
	i := 0
	run := func() {
		root.SplitInto(uint64(i), &r)
		i++
		if err := s.Reset(sp, &r); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 8; k++ {
		run()
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("bare session: %v allocs per trial, want 0", allocs)
	}
}

// TestStreamedSessionAllocationFree: the streamed path above the sparse
// cutover (rank directory, select samples, batched removal) reuses every
// buffer, so once a pass over a set of trials has sized them, a reused
// bare session replaying those trials allocates nothing. A buffer
// rebuilt per round or per snapshot would cost several allocations per
// trial; AllocsPerRun's rounded-down average absorbs only the runtime's
// rare type-assertion cache refills.
func TestStreamedSessionAllocationFree(t *testing.T) {
	const trials = 6
	for _, n := range []int{idset.SparseCutover, 100_000} {
		sp := Spec{N: n, T: 16, X: 16, Collision: fastsim.DefaultConfig(), Algorithm: core.TwoTBins{}}
		root := rng.New(2)
		var s Session
		var r rng.Source
		k := 0
		next := func() {
			root.SplitInto(uint64(k%trials), &r)
			k++
			if err := s.Reset(sp, &r); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < trials; i++ {
			next()
		}
		if allocs := testing.AllocsPerRun(2*trials, next); allocs != 0 {
			t.Fatalf("n=%d: %v allocs per trial, want 0", n, allocs)
		}
	}
}

// TestAuditAttributeAndPublish runs faulted audited sessions with
// attribution on: every wrong verdict joined to an injected fault names it
// in the label, the collector holds every session, and Publish closes each
// one on the bus with exactly one verdict.
func TestAuditAttributeAndPublish(t *testing.T) {
	fcfg, err := faults.ParseSpec("burst=8,frac=0.4")
	if err != nil {
		t.Fatal(err)
	}
	bus := obs.NewBus()
	verdicts := 0
	bus.Subscribe(obs.SinkFunc(func(e obs.Event) {
		if e.Kind == obs.KindSessionVerdict {
			verdicts++
		}
	}))
	col := &audit.Collector{}
	var s Session
	const trials = 40
	attributed := 0
	for i := 0; i < trials; i++ {
		sp := Spec{
			N: 64, T: 8, X: 10, Collision: fastsim.DefaultConfig(), Alg: "2tbins",
			Label: "s", Trial: i, Faults: &fcfg, Audit: col, Attribute: true, Obs: bus,
		}
		if err := s.Reset(sp, rng.New(9).Split(uint64(i))); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		s.Publish()
		v, ok := s.Verdict()
		if !ok {
			t.Fatal("audited session has no verdict")
		}
		if s.Attributed() {
			attributed++
			if v.Correct() {
				t.Fatalf("trial %d: correct verdict attributed to a fault", i)
			}
		}
	}
	col.Flush()
	st := col.Stats()
	if st.Sessions != trials || verdicts != trials {
		t.Fatalf("collected %d sessions, published %d verdicts, want %d", st.Sessions, verdicts, trials)
	}
	named := 0
	for _, w := range st.Wrong {
		if strings.HasPrefix(w.Session, "s [") {
			named++
		}
	}
	if len(st.Wrong) == 0 || attributed == 0 || named != attributed {
		t.Fatalf("%d wrong decisions, %d attributed, %d labelled with their fault; want some, all labelled", len(st.Wrong), attributed, named)
	}
}

// TestFailedResetPublishesNothing: a session whose Reset failed has no
// chain and no decision, so Publish must not invent a verdict.
func TestFailedResetPublishesNothing(t *testing.T) {
	bus := obs.NewBus()
	events := 0
	bus.Subscribe(obs.SinkFunc(func(obs.Event) { events++ }))
	var s Session
	ok := Spec{N: 32, T: 4, X: 4, Collision: fastsim.DefaultConfig(), Alg: "2tbins", Obs: bus}
	if err := s.Reset(ok, rng.New(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	bad := ok
	bad.Alg = "nope"
	if err := s.Reset(bad, rng.New(1)); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	before := events
	s.Publish()
	if events != before {
		t.Fatalf("Publish after a failed Reset emitted %d events", events-before)
	}
}

func TestValidate(t *testing.T) {
	good := Spec{N: 128, T: 16, X: 8, Alg: "2tbins"}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	for name, mutate := range map[string]func(*Spec){
		"n zero":           func(s *Spec) { s.N, s.X = 0, 0 },
		"t zero":           func(s *Spec) { s.T = 0 },
		"t above n":        func(s *Spec) { s.T = 200 },
		"x negative":       func(s *Spec) { s.X = -1 },
		"x above n":        func(s *Spec) { s.X = 129 },
		"trial negative":   func(s *Spec) { s.Trial = -1 },
		"retries negative": func(s *Spec) { s.Retry.MaxRetries = -1 },
		"backoff negative": func(s *Spec) { s.Retry.Backoff = -1 },
		"unknown alg":      func(s *Spec) { s.Alg = "magic" },
	} {
		sp := good
		mutate(&sp)
		if err := sp.Validate(); err == nil {
			t.Errorf("%s: accepted %+v", name, sp)
		}
	}
	if _, err := Model("3+"); err == nil {
		t.Error("unknown model accepted")
	}
}
