// Package session is the one pipeline every harness runs a tcast session
// through: a sequence of RCD group polls, one slot each in the paper's
// cost model, issued by one algorithm against one substrate with the
// configured layers stacked above it.
//
// A Spec declares the session — field size, threshold, ground truth,
// algorithm — and the layers it runs under. A Session is a reusable value
// that owns one trial's scratch (the abstract channel, the algorithm
// arena, the derived streams, the fault injector and the auditor); Reset
// re-targets it at a new Spec in place, so a pooled or per-worker Session
// runs the bare trial without allocating. The caller decides how to keep
// it: a sync.Pool for n=128 sweeps and served sessions, one Session per
// worker where its O(N) buffers must survive every GC.
//
// Every session derives its randomness the same way from its trial
// stream: the substrate from Split(1), the fault injector from Split(9)
// and the algorithm from Split(2) — Split(3) when a caller-built substrate
// draws from Split(1) and Split(2) itself. The layers stack in one order,
// substrate first:
//
//	substrate → faults → [medium] → retry → metrics → audit → trace → obs
//
// None of the layers above the injector consumes randomness, so a session
// decides and costs the same with any of them on or off.
package session

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"tcast/internal/audit"
	"tcast/internal/core"
	"tcast/internal/fastsim"
	"tcast/internal/faults"
	"tcast/internal/metrics"
	"tcast/internal/obs"
	"tcast/internal/query"
	"tcast/internal/rng"
	"tcast/internal/trace"
)

// errNotRun marks a session that Reset has not got as far as running.
var errNotRun = errors.New("session: not run")

// Split labels of a trial stream.
const (
	substrateStream = 1
	algStream       = 2
	customAlgStream = 3 // algorithm stream beside a caller-built substrate
	faultStream     = 9
)

// algorithms maps the wire names the front ends accept to the algorithm
// each runs. The Oracle reads the session's ground truth (see Reset).
var algorithms = map[string]core.Algorithm{
	"2tbins":   core.TwoTBins{},
	"exp":      core.ExpIncrease{},
	"abns-t":   core.ABNS{P0: 1},
	"abns-2t":  core.ABNS{P0: 2},
	"probabns": core.ProbABNS{},
	"oracle":   core.Oracle{},
}

// Algorithm returns the algorithm behind a wire name. An "oracle" reads
// its ground truth from truth.
func Algorithm(name string, truth core.GroundTruth) (core.Algorithm, error) {
	a, ok := algorithms[name]
	if !ok {
		return nil, fmt.Errorf("session: unknown algorithm %q (want %s)", name, strings.Join(Algorithms(), "|"))
	}
	return bindOracle(a, truth), nil
}

// Algorithms lists the wire names in sorted order.
func Algorithms() []string {
	names := make([]string, 0, len(algorithms))
	for name := range algorithms {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// bindOracle gives an Oracle without a Truth the session's ground truth.
func bindOracle(a core.Algorithm, truth core.GroundTruth) core.Algorithm {
	if o, ok := a.(core.Oracle); ok && o.Truth == nil {
		o.Truth = truth
		return o
	}
	return a
}

// Model returns the abstract channel's collision config for a model name
// ("1+" or "2+").
func Model(name string) (fastsim.Config, error) {
	switch name {
	case "1+":
		return fastsim.DefaultConfig(), nil
	case "2+":
		return fastsim.TwoPlusConfig(), nil
	}
	return fastsim.Config{}, fmt.Errorf("session: unknown model %q (want 1+|2+)", name)
}

// Spec declares one session and the layers it runs under. A nil or zero
// layer field leaves that layer out of the stack.
type Spec struct {
	// N, T and X are the field size, the threshold and the number of
	// positive nodes; the session decides whether X >= T.
	N, T, X int
	// Collision is the abstract channel's collision config.
	Collision fastsim.Config
	// Alg is the algorithm's wire name (Algorithms lists them).
	// Algorithm, when set, is run instead — for algorithms with no wire
	// name, such as the ExpIncrease variants.
	Alg       string
	Algorithm core.Algorithm
	// Label names the session in audit rows and bus events; Trial is its
	// index within its batch, which keys its trace fork, its audit row
	// and its trace sampling.
	Label string
	Trial int

	// Substrate, when set, builds the session's substrate from the trial
	// stream instead of the abstract channel (the packet-level
	// experiments). It may draw from Split(1) and Split(2); the algorithm
	// then draws from Split(3).
	Substrate func(r *rng.Source) (query.Querier, error)
	// Faults stacks the fault injector directly above the substrate. A
	// non-nil config with every rate zero still interposes it.
	Faults *faults.Config
	// Medium, when set, wraps the faulted substrate before the retry
	// layer (the serving scheduler's shared medium). It must consume no
	// randomness.
	Medium func(query.Querier) query.Querier
	// Retry is the initiator retry policy; the zero policy adds no layer.
	Retry query.RetryPolicy
	// Metrics instruments every group poll and the session totals.
	Metrics *metrics.Registry
	// Audit grades the session against the substrate's ground truth and
	// collects the verdict under Trial.
	Audit *audit.Collector
	// Attribute suffixes the label of a wrong audited decision with the
	// injected fault its causal poll joins, when there is one.
	Attribute bool
	// Trace records the session as trial → session → round → poll spans
	// into Trace.Fork(Trial); the caller grafts the forks. TraceSample
	// keeps 1-in-k poll leaf spans (k <= 1 keeps all).
	Trace       *trace.Builder
	TraceSample int
	// Obs publishes the session's start, polls, chain events and verdict.
	Obs *obs.Bus
}

// Validate checks the rules every front end applies to a spec: 1 <= T <= N,
// 0 <= X <= N, a non-negative trial index and retry policy, and a known
// Alg. An empty Alg is not checked, so front ends that also run the
// contention-free baselines can validate the numbers alone.
func (sp Spec) Validate() error {
	if sp.N < 1 {
		return fmt.Errorf("session: n=%d below 1", sp.N)
	}
	if sp.X < 0 || sp.X > sp.N {
		return fmt.Errorf("session: x=%d outside [0,%d]", sp.X, sp.N)
	}
	if sp.T < 1 || sp.T > sp.N {
		return fmt.Errorf("session: t=%d outside [1,%d]", sp.T, sp.N)
	}
	if sp.Trial < 0 {
		return fmt.Errorf("session: trial=%d negative", sp.Trial)
	}
	if sp.Retry.MaxRetries < 0 || sp.Retry.Backoff < 0 {
		return fmt.Errorf("session: negative retry policy (retries=%d backoff=%d)", sp.Retry.MaxRetries, sp.Retry.Backoff)
	}
	if sp.Alg != "" {
		if _, err := Algorithm(sp.Alg, nil); err != nil {
			return err
		}
	}
	return nil
}

// Session is one trial's scratch and its stacked querier. The zero value
// is ready for Reset.
type Session struct {
	spec  Spec
	alg   core.Algorithm
	q     query.Querier
	label string

	ch            fastsim.Channel
	arena         core.Arena
	chr, fr, algr rng.Source
	sub           rng.Source
	inj           faults.Injector
	auditor       *audit.Auditor
	verdict       audit.Verdict
	graded        bool
	attributed    bool
	fb            *trace.Builder
	sq            *trace.SpanQuerier

	res core.Result
	err error
}

// Reset re-targets s at sp, drawing from the trial stream r, and stacks
// the session's layers. The draws equal their allocating equivalents
// (fastsim.RandomPositives, faults.New, audit.New), so a reused Session
// runs bit-identically to a fresh one.
func (s *Session) Reset(sp Spec, r *rng.Source) error {
	s.spec, s.label, s.q = sp, sp.Label, nil
	s.graded, s.attributed = false, false
	s.fb, s.sq = nil, nil
	s.res, s.err = core.Result{}, errNotRun
	alg := sp.Algorithm
	if alg == nil {
		a, err := Algorithm(sp.Alg, nil)
		if err != nil {
			return err
		}
		alg = a
	}

	var q query.Querier
	stream := uint64(algStream)
	if sp.Substrate != nil {
		// Hand the substrate a copy of the trial stream: Split never
		// advances its parent, so the draws are the same, and r does not
		// escape through the indirect call (a bare caller's stream stays
		// on its stack).
		s.sub = *r
		sub, err := sp.Substrate(&s.sub)
		if err != nil {
			return err
		}
		q, stream = sub, customAlgStream
	} else {
		r.SplitInto(substrateStream, &s.chr)
		s.ch.ResetRandom(sp.N, sp.X, sp.Collision, &s.chr)
		q = &s.ch
	}
	if truth, ok := q.(core.GroundTruth); ok {
		alg = bindOracle(alg, truth)
	}
	s.alg = alg
	if sp.Faults != nil {
		r.SplitInto(faultStream, &s.fr)
		s.inj.Reset(q, *sp.Faults, sp.N, &s.fr)
		q = &s.inj
	}
	if sp.Medium != nil {
		q = sp.Medium(q)
	}
	q = metrics.Wrap(query.WithRetry(q, sp.Retry), sp.Metrics)
	if sp.Audit != nil {
		acfg := audit.Config{N: sp.N, T: sp.T, Metrics: sp.Metrics}
		if s.auditor == nil {
			s.auditor = new(audit.Auditor)
		}
		if err := s.auditor.Reset(q, acfg); err != nil {
			return err
		}
		q = s.auditor
	}
	if b := sp.Trace; b != nil {
		// Keep only the fork: a pooled session must not pin the caller's
		// whole trace once the caller has moved on to a new builder.
		s.spec.Trace = nil
		s.fb = b.Fork(sp.Trial)
		s.fb.Begin(trace.KindTrial, "trial "+strconv.Itoa(sp.Trial))
		s.sq = trace.NewSpanQuerier(q, s.fb)
		s.sq.SetSampling(sp.TraceSample, uint64(sp.Trial))
		s.sq.StartSession(alg.Name(),
			trace.IntAttr("n", sp.N), trace.IntAttr("t", sp.T), trace.IntAttr("x", sp.X))
		q = s.sq
	}
	if sp.Obs != nil {
		// Outermost, so the published poll stream counts exactly the
		// algorithm-visible polls every layer below has already seen.
		q = obs.NewPublisher(q, sp.Obs, sp.Label, sp.Trial)
	}
	s.q = q
	r.SplitInto(stream, &s.algr)
	return nil
}

// Run executes the algorithm, grades the decision and closes the spans.
// Teardown order: the audit verdict first (so it annotates the closing
// session span), then the session span, then the metrics totals. A
// session that errors before deciding is voided in the collector and its
// span records the error.
func (s *Session) Run() (core.Result, error) {
	sp := &s.spec
	obs.PublishSessionStart(sp.Obs, sp.Label, sp.Trial)
	s.res, s.err = core.RunIn(&s.arena, s.alg, s.q, sp.N, sp.T, &s.algr)
	if sp.Audit != nil {
		if s.err == nil {
			s.verdict = s.auditor.Finish(s.res.Decision)
			s.graded = true
			if sp.Attribute && !s.verdict.Correct() {
				if cause := obs.DescribeCause(s.q, s.verdict.CausalPoll); cause != "" {
					s.label += " [" + cause + "]"
					s.attributed = true
				}
			}
		}
		s.Record(sp.Audit)
	}
	if s.sq != nil {
		if s.err == nil {
			s.sq.EndSession(
				trace.BoolAttr("decision", s.res.Decision),
				trace.IntAttr("queries", s.res.Queries),
				trace.IntAttr("rounds", s.res.Rounds))
		} else {
			s.sq.EndSession(trace.StringAttr("error", s.err.Error()))
		}
		s.fb.End() // trial span
	}
	if s.err != nil {
		return s.res, s.err
	}
	metrics.FinishSession(s.q)
	return s.res, nil
}

// Record adds the session's verdict to c under its trial index, or voids
// the session in c when it ended without a decision. It is how a caller
// folds one audited session into a second collector; Run already records
// into Spec.Audit. A nil c is a no-op.
func (s *Session) Record(c *audit.Collector) {
	if c == nil {
		return
	}
	if s.graded {
		c.AddAt(s.spec.Trial, s.label, s.verdict)
	} else {
		c.Void(s.label)
	}
}

// Publish emits the finished session's chain events (injected faults,
// exhausted retries) and, when it decided, its verdict onto Spec.Obs:
// the audit verdict when graded, otherwise the decision against the
// configured truth X >= T. A nil bus is a no-op.
func (s *Session) Publish() {
	bus := s.spec.Obs
	if bus == nil {
		return
	}
	obs.PublishChainEvents(bus, s.label, s.spec.Trial, s.q)
	switch {
	case s.err != nil:
	case s.graded:
		obs.PublishVerdict(bus, s.label, s.spec.Trial, s.verdict, s.Slots(), s.q)
	default:
		obs.PublishDecision(bus, s.label, s.spec.Trial, s.res.Decision, s.spec.X >= s.spec.T,
			s.res.Queries, s.Slots())
	}
}

// Slots is the finished session's own cost in virtual slots: the chain's
// slot meter when it has one, otherwise one slot per poll.
func (s *Session) Slots() int64 { return obs.ChainSlots(s.q, s.res.Queries) }

// Verdict returns the audit verdict of a graded session. Its node account
// is only valid until the next Reset.
func (s *Session) Verdict() (audit.Verdict, bool) { return s.verdict, s.graded }

// Attributed reports whether Spec.Attribute joined a wrong decision to an
// injected fault; the label it records and publishes under then names the
// fault.
func (s *Session) Attributed() bool { return s.attributed }
