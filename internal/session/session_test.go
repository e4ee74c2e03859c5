package session

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"

	"tcast/internal/audit"
	"tcast/internal/core"
	"tcast/internal/fastsim"
	"tcast/internal/faults"
	"tcast/internal/idset"
	"tcast/internal/metrics"
	"tcast/internal/obs"
	"tcast/internal/query"
	"tcast/internal/rng"
	"tcast/internal/trace"
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

// layerOutputs is everything a batch of observed trials leaves behind.
type layerOutputs struct {
	results []core.Result
	reg     *metrics.Registry
	col     *audit.Collector
	tb      *trace.Builder
	bus     *obs.Bus
	events  []string
}

// newLayerOutputs configures the observers whose bits are set in mask:
// 1 metrics, 2 audit, 4 trace, 8 obs.
func newLayerOutputs(mask int) *layerOutputs {
	o := &layerOutputs{}
	if mask&1 != 0 {
		o.reg = metrics.New()
	}
	if mask&2 != 0 {
		o.col = &audit.Collector{}
	}
	if mask&4 != 0 {
		o.tb = trace.NewBuilder()
	}
	if mask&8 != 0 {
		o.bus = obs.NewBus()
		o.bus.Subscribe(obs.SinkFunc(func(e obs.Event) {
			e.Seq = 0
			o.events = append(o.events, fmt.Sprintf("%+v", e))
		}))
	}
	return o
}

// dump renders the outputs for comparison: the results, the metrics
// text dump, the collector's statistics, the encoded trace and the sorted
// bus events.
func (o *layerOutputs) dump(t *testing.T) []string {
	t.Helper()
	out := []string{fmt.Sprint(o.results)}
	if o.reg != nil {
		var b bytes.Buffer
		if err := metrics.WriteText(&b, o.reg.Snapshot()); err != nil {
			t.Fatal(err)
		}
		out = append(out, b.String())
	}
	if o.col != nil {
		o.col.Flush()
		data, err := json.Marshal(o.col.Stats())
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(data))
	}
	if o.tb != nil {
		o.tb.Graft()
		data, err := encodeBytes(o.tb.Trace())
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(data))
	}
	if o.bus != nil {
		sort.Strings(o.events)
		out = append(out, strings.Join(o.events, "\n"))
	}
	return out
}

// handBuiltLayers runs trial i the way the benchmark stacks the layers:
// each observability layer by its own constructor, nested metrics, audit,
// trace, obs from the substrate up, finished in the session's teardown
// order.
func handBuiltLayers(t *testing.T, o *layerOutputs, fcfg *faults.Config, retry query.RetryPolicy, sample, n, tt, x, i int, label string, r *rng.Source) core.Result {
	t.Helper()
	ch, _ := fastsim.RandomPositives(n, x, fastsim.DefaultConfig(), r.Split(1))
	var q query.Querier = ch
	if fcfg != nil {
		q = faults.New(q, *fcfg, n, r.Split(9))
	}
	q = query.WithRetry(q, retry)
	q = metrics.Wrap(q, o.reg)
	var aud *audit.Auditor
	if o.col != nil {
		var err error
		if aud, err = audit.New(q, audit.Config{N: n, T: tt, Metrics: o.reg}); err != nil {
			t.Fatal(err)
		}
		q = aud
	}
	var fb *trace.Builder
	var sq *trace.SpanQuerier
	if o.tb != nil {
		fb = o.tb.Fork(i)
		fb.Begin(trace.KindTrial, "trial "+strconv.Itoa(i))
		sq = trace.NewSpanQuerier(q, fb)
		sq.SetSampling(sample, uint64(i))
		sq.StartSession("2tBins", trace.IntAttr("n", n), trace.IntAttr("t", tt), trace.IntAttr("x", x))
		q = sq
	}
	if o.bus != nil {
		q = obs.NewPublisher(q, o.bus, label, i)
		obs.PublishSessionStart(o.bus, label, i)
	}
	res, err := core.TwoTBins{}.Run(q, n, tt, r.Split(2))
	if err != nil {
		t.Fatal(err)
	}
	if aud != nil {
		v := aud.Finish(res.Decision)
		o.col.AddAt(i, label, v)
		if o.bus != nil {
			obs.PublishChainEvents(o.bus, label, i, q)
			obs.PublishVerdict(o.bus, label, i, v, obs.ChainSlots(q, v.Polls), q)
		}
	}
	if sq != nil {
		sq.EndSession(trace.BoolAttr("decision", res.Decision),
			trace.IntAttr("queries", res.Queries), trace.IntAttr("rounds", res.Rounds))
		fb.End()
	}
	metrics.FinishSession(q)
	if o.bus != nil && aud == nil {
		obs.PublishChainEvents(o.bus, label, i, q)
		obs.PublishDecision(o.bus, label, i, res.Decision, x >= tt, res.Queries, obs.ChainSlots(q, res.Queries))
	}
	return res
}

// TestTapMatchesHandBuiltLayers: for every subset of {metrics, audit,
// trace, obs}, with faults off and on, a Session — one Tap carrying the
// configured observers — leaves exactly what the nested per-layer
// constructors leave: the same results, metrics dump, audit statistics,
// encoded trace bytes and bus events. CI runs it under the race detector.
func TestTapMatchesHandBuiltLayers(t *testing.T) {
	fcfg, err := faults.ParseSpec("burst=6,frac=0.3,churn=0.01")
	if err != nil {
		t.Fatal(err)
	}
	const n, tt, trials = 64, 8, 6
	var s Session // reused across every case
	for mask := 0; mask < 16; mask++ {
		for _, faulted := range []bool{false, true} {
			var fc *faults.Config
			var retry query.RetryPolicy
			sample := 1
			if faulted {
				fc, retry, sample = &fcfg, query.RetryPolicy{MaxRetries: 2, Backoff: 1}, 2
			}
			hand, tap := newLayerOutputs(mask), newLayerOutputs(mask)
			for i := 0; i < trials; i++ {
				x := 4 + 2*i
				label := fmt.Sprintf("2tBins/x=%d/trial=%d", x, i)
				hand.results = append(hand.results,
					handBuiltLayers(t, hand, fc, retry, sample, n, tt, x, i, label, rng.New(7).Split(uint64(i))))
				sp := Spec{
					N: n, T: tt, X: x, Collision: fastsim.DefaultConfig(), Alg: "2tbins",
					Label: label, Trial: i, Faults: fc, Retry: retry,
					Metrics: tap.reg, Audit: tap.col, Trace: tap.tb, TraceSample: sample, Obs: tap.bus,
				}
				if err := s.Reset(sp, rng.New(7).Split(uint64(i))); err != nil {
					t.Fatal(err)
				}
				res, err := s.Run()
				if err != nil {
					t.Fatal(err)
				}
				s.Publish()
				tap.results = append(tap.results, res)
			}
			want, got := hand.dump(t), tap.dump(t)
			for k := range want {
				if got[k] != want[k] {
					t.Errorf("layers %04b faulted=%v: output %d differs\nhand-built:\n%.600s\nsession:\n%.600s", mask, faulted, k, want[k], got[k])
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

// failingAlg polls its bins, then gives up without deciding.
type failingAlg struct{ bins [][]int }

func (failingAlg) Name() string { return "failing" }

func (a failingAlg) Run(q query.Querier, _, _ int, _ *rng.Source) (core.Result, error) {
	for _, b := range a.bins {
		q.Query(b)
	}
	return core.Result{Queries: len(a.bins)}, errors.New("gave up")
}

// TestErroredSessionMetrics: a session that errors mid-run still adds its
// polls, node-polls and bin sizes to the registry as Run returns, and
// adds no session totals.
func TestErroredSessionMetrics(t *testing.T) {
	reg := metrics.New()
	alg := failingAlg{bins: [][]int{{0, 1, 2}, {3}, {4, 5, 6, 7, 8}}}
	var s Session
	sp := Spec{N: 16, T: 2, X: 4, Collision: fastsim.DefaultConfig(), Algorithm: alg, Metrics: reg}
	if err := s.Reset(sp, rng.New(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err == nil {
		t.Fatal("failing algorithm reported no error")
	}
	snap := reg.Snapshot()
	var polls float64
	for _, c := range snap.Counters {
		if strings.HasPrefix(c.Name, metrics.MetricPolls+"{") {
			polls += c.Value
		}
	}
	if polls != 3 {
		t.Errorf("%s sums to %v, want 3", metrics.MetricPolls, polls)
	}
	if got := reg.Counter(metrics.MetricNodesPolled).Value(); got != 9 {
		t.Errorf("%s = %d, want 9", metrics.MetricNodesPolled, got)
	}
	if got := reg.Counter(metrics.MetricSessions).Value(); got != 0 {
		t.Errorf("%s = %d, want 0 for a session that did not decide", metrics.MetricSessions, got)
	}
	for _, h := range snap.Histograms {
		want := struct {
			count uint64
			sum   float64
		}{}
		if h.Name == metrics.MetricBinSize {
			want.count, want.sum = 3, 9
		}
		if h.Count != want.count || h.Sum != want.sum {
			t.Errorf("%s: count %d sum %v, want %d and %v", h.Name, h.Count, h.Sum, want.count, want.sum)
		}
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

// encodeBytes renders a trace to a byte slice through Encode.
func encodeBytes(tr *trace.Trace) ([]byte, error) {
	var buf bytes.Buffer
	err := trace.Encode(&buf, tr)
	return buf.Bytes(), err
}
