package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tcast/internal/audit"
	"tcast/internal/core"
	"tcast/internal/faults"
	"tcast/internal/query"
	"tcast/internal/rng"
	"tcast/internal/session"
)

// Spec is one query session's resolved parameters — the wire request
// after defaulting and validation. Seed and Trial fix the session's
// entire random draw: the daemon derives its RNG exactly the way
// tcastsim derives trial Trial of a -seed Seed sweep, so any served
// session can be replayed offline.
type Spec struct {
	N     int    `json:"n"`
	T     int    `json:"t"`
	X     int    `json:"x"`
	Alg   string `json:"alg"`
	Model string `json:"model"`
	Seed  uint64 `json:"seed"`
	Trial int    `json:"trial"`
	// Field pins the session to one field of the pool; -1 (the wire
	// default) lets the pool round-robin.
	Field int `json:"field"`
	// Faults is a fault-injection spec (faults.ParseSpec syntax), applied
	// below the medium like tcastsim's -faults.
	Faults string `json:"faults,omitempty"`
	// Retries/Backoff configure the initiator retry middleware.
	Retries int `json:"retries,omitempty"`
	Backoff int `json:"backoff,omitempty"`
	// Audit grades the session against ground truth (audit.Verdict
	// outcome on the result and the obs verdict stream).
	Audit bool `json:"audit,omitempty"`
}

// State is a session's lifecycle position.
type State int32

const (
	// StateQueued: admitted, waiting for a scheduler slot on its field.
	StateQueued State = iota
	// StateRunning: scheduled on the field's medium.
	StateRunning
	// StateDone: finished with a result.
	StateDone
	// StateFailed: finished with an error (round limit, bad stack).
	StateFailed
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	default:
		return fmt.Sprintf("State(%d)", int32(s))
	}
}

// Terminal reports whether the session has finished either way.
func (s State) Terminal() bool { return s == StateDone || s == StateFailed }

// Result is one finished session's verdict and slot ledger. The virtual
// prices split three ways: SessionSlots is the initiator's own cost in
// the paper's model — byte-identical to the same seed run through
// tcastsim, contention cannot change it. MediumSlots is the session's
// occupancy of the shared medium and WaitedSlots the slots it spent
// blocked behind other initiators' transmissions; Span = End - Start is
// the honest end-to-end price of running under contention.
type Result struct {
	Decision  bool   `json:"decision"`
	Truth     bool   `json:"truth"`
	Correct   bool   `json:"correct"`
	Outcome   string `json:"outcome"`
	Polls     int    `json:"polls"`
	Rounds    int    `json:"rounds"`
	Confirmed int    `json:"confirmed,omitempty"`

	SessionSlots int64 `json:"session_slots"`
	MediumSlots  int64 `json:"medium_slots"`
	WaitedSlots  int64 `json:"waited_slots"`
	StartSlot    int64 `json:"start_slot"`
	EndSlot      int64 `json:"end_slot"`
	SpanSlots    int64 `json:"span_slots"`
}

// Session is one admitted query: the scheduler's ledger fields, the
// goroutine's execution state, and the completion signal.
type Session struct {
	ID     string
	Client string
	Spec   Spec

	seq   uint64
	field *Field

	// grant delivers the scheduler's transmit permission; lastCost
	// carries the previous poll's slots into the next park event.
	grant    chan int64
	lastCost int64

	// Scheduler-owned virtual-time ledger (only the field loop writes
	// these after arrival).
	readyAt   int64
	startSlot int64
	waited    int64
	ownSlots  int64

	// Written by the session goroutine before evDone, read by finish,
	// which publishes the pipeline's verdict and pools it back.
	pipe   *session.Session
	res    core.Result
	runErr error

	state     atomic.Int32
	result    *Result
	wall      time.Duration
	submitted time.Time
	done      chan struct{}
}

// State returns the session's lifecycle position.
func (s *Session) State() State { return State(s.state.Load()) }

// Done is closed when the session reaches a terminal state.
func (s *Session) Done() <-chan struct{} { return s.done }

// Result returns the finished session's result, or the run error. It
// must only be consulted after Done() (or a Terminal state).
func (s *Session) Result() (*Result, error) {
	if !s.State().Terminal() {
		return nil, fmt.Errorf("serve: session %s still %s", s.ID, s.State())
	}
	return s.result, s.runErr
}

// Wall returns the submitted→finished wall-clock latency; valid once
// terminal.
func (s *Session) Wall() time.Duration { return s.wall }

// label names the session on the obs bus.
func (s *Session) label() string {
	return fmt.Sprintf("%s/%s/seed=%d", s.ID, s.Spec.Alg, s.Spec.Seed)
}

// Status is the session's wire shape for GET /query/{id}.
type Status struct {
	ID        string  `json:"id"`
	State     string  `json:"state"`
	Spec      Spec    `json:"spec"`
	Result    *Result `json:"result,omitempty"`
	Error     string  `json:"error,omitempty"`
	ElapsedMs float64 `json:"elapsed_ms,omitempty"`
}

// Status snapshots the session for serving.
func (s *Session) Status() Status {
	st := Status{ID: s.ID, State: s.State().String(), Spec: s.Spec}
	if st.State == StateDone.String() {
		st.Result = s.result
		st.ElapsedMs = float64(s.wall) / 1e6
	}
	if st.State == StateFailed.String() {
		st.Error = s.runErr.Error()
		st.ElapsedMs = float64(s.wall) / 1e6
	}
	return st
}

// resolveSpec fills defaults and validates a submission with the session
// rules every front end shares, plus the pool's MaxN.
func (p *Pool) resolveSpec(spec Spec) (Spec, error) {
	d := p.cfg.Defaults
	if spec.N == 0 {
		spec.N = d.N
	}
	if spec.T == 0 {
		spec.T = d.T
	}
	if spec.Alg == "" {
		spec.Alg = d.Alg
	}
	if spec.Model == "" {
		spec.Model = d.Model
	}
	if spec.N > p.cfg.MaxN {
		return spec, fmt.Errorf("serve: n=%d outside [1,%d]", spec.N, p.cfg.MaxN)
	}
	sp, err := spec.pipeline()
	if err != nil {
		return spec, err
	}
	return spec, sp.Validate()
}

// pipeline translates the wire spec into the session's declaration: the
// named collision model and algorithm, the retry policy, and the fault
// injector when the fault spec can fire (tcastsim stacks it the same way).
func (sp Spec) pipeline() (session.Spec, error) {
	cfg, err := session.Model(sp.Model)
	if err != nil {
		return session.Spec{}, err
	}
	fcfg, err := faults.ParseSpec(sp.Faults)
	if err != nil {
		return session.Spec{}, err
	}
	out := session.Spec{
		N: sp.N, T: sp.T, X: sp.X, Collision: cfg, Alg: sp.Alg, Trial: sp.Trial,
		Retry: query.RetryPolicy{MaxRetries: sp.Retries, Backoff: sp.Backoff},
	}
	if fcfg.Active() {
		out.Faults = &fcfg
	}
	return out, nil
}

// pipelines pools the served sessions' pipelines; finish returns each one
// after publishing its verdict.
var pipelines = sync.Pool{New: func() any { return new(session.Session) }}

// run is the session goroutine: acquire a scheduler slot (queueing when
// the field is at MaxActive), announce arrival, execute the query, and
// report completion to the scheduler, which prices and finishes it.
func (s *Session) run() {
	f := s.field
	p := f.pool
	defer p.wg.Done()
	select {
	case <-f.tokens:
	default:
		f.queued.Add(1)
		p.updateGauges()
		<-f.tokens
		f.queued.Add(-1)
	}
	f.active.Add(1)
	p.updateGauges()
	s.state.Store(int32(StateRunning))
	f.events <- schedEvent{kind: evArrive, s: s}
	s.runErr = s.execute()
	f.events <- schedEvent{kind: evDone, s: s, cost: s.lastCost}
	<-s.done
	f.active.Add(-1)
	p.updateGauges()
	f.tokens <- struct{}{}
}

// execute runs the session through its pipeline. The derivation is
// tcastsim's exactly — root rng.New(Seed), per-trial SplitInto(Trial) —
// with the scheduler's medium (randomness-free, response-preserving)
// spliced between the substrate and the retry layer. A served session's
// verdict and SessionSlots are therefore byte-identical to trial Trial of
// `tcastsim -seed Seed` with the same parameters.
func (s *Session) execute() error {
	p := s.field.pool
	sp, err := s.Spec.pipeline()
	if err != nil {
		return err
	}
	sp.Label, sp.Metrics, sp.Obs = s.label(), p.cfg.Registry, p.cfg.Bus
	sp.Medium = func(q query.Querier) query.Querier { return newMediumQuerier(q, s) }
	if s.Spec.Audit {
		// A served session is graded on its own; the verdict lands on its
		// Result, so its collector holds this one session.
		sp.Audit = new(audit.Collector)
	}
	var src rng.Source
	rng.New(s.Spec.Seed).SplitInto(uint64(s.Spec.Trial), &src)
	s.pipe = pipelines.Get().(*session.Session)
	if err := s.pipe.Reset(sp, &src); err != nil {
		return err
	}
	s.res, err = s.pipe.Run()
	return err
}

// finish runs on the field's scheduler goroutine once the session's
// evDone is processed: it assembles the result from the algorithm's
// outcome and the scheduler's ledger, publishes the verdict onto the obs
// bus (in scheduler order, so event streams are as deterministic as the
// schedule), records metrics, returns the admission slot and releases
// waiters.
func (s *Session) finish(end int64) {
	p := s.field.pool
	s.wall = time.Since(s.submitted)
	if s.runErr == nil {
		r := &Result{
			Decision:  s.res.Decision,
			Truth:     s.Spec.X >= s.Spec.T,
			Polls:     s.res.Queries,
			Rounds:    s.res.Rounds,
			Confirmed: s.res.Confirmed,

			SessionSlots: s.pipe.Slots(),
			MediumSlots:  s.ownSlots,
			WaitedSlots:  s.waited,
			StartSlot:    s.startSlot,
			EndSlot:      end,
			SpanSlots:    end - s.startSlot,
		}
		if v, ok := s.pipe.Verdict(); ok {
			r.Correct = v.Correct()
			r.Outcome = v.Outcome.String()
		} else {
			r.Correct = s.res.Decision == r.Truth
			r.Outcome = audit.OutcomeCorrect.String()
			if !r.Correct {
				r.Outcome = audit.OutcomeWrongUnattributed.String()
			}
		}
		s.result = r
		if p.sessionCtr != nil {
			if r.Correct {
				p.sessionCtr("correct")
			} else {
				p.sessionCtr("wrong")
			}
		}
		if p.latencyH != nil {
			p.latencyH.Observe(float64(s.wall))
		}
		s.state.Store(int32(StateDone))
	} else {
		if p.sessionCtr != nil {
			p.sessionCtr("error")
		}
		s.state.Store(int32(StateFailed))
	}
	if s.pipe != nil {
		s.pipe.Publish()
		pipelines.Put(s.pipe)
		s.pipe = nil
	}
	// Return the admission slot before signalling completion, so a client
	// that waits on Done() can submit again at once without being shed
	// at its own limit.
	p.release(s)
	close(s.done)
}
