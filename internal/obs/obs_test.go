package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"tcast/internal/audit"
	"tcast/internal/metrics"
	"tcast/internal/query"
)

// collect is a test sink accumulating every event it sees.
type collect struct {
	mu     sync.Mutex
	events []Event
}

func (c *collect) OnEvent(e Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, e)
}

func (c *collect) all() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

func TestBusPublishSubscribe(t *testing.T) {
	b := NewBus()
	// No subscribers: no sequence numbers claimed.
	b.Publish(Event{Kind: KindPoll})
	if got := b.Seq(); got != 0 {
		t.Fatalf("seq with no sinks = %d, want 0", got)
	}
	var c collect
	b.Subscribe(&c)
	b.Publish(Event{Kind: KindPoll, Poll: 3})
	b.Publish(Event{Kind: KindSessionVerdict})
	got := c.all()
	if len(got) != 2 {
		t.Fatalf("delivered %d events, want 2", len(got))
	}
	if got[0].Seq != 1 || got[1].Seq != 2 {
		t.Fatalf("sequence numbers %d,%d, want 1,2", got[0].Seq, got[1].Seq)
	}
	b.Unsubscribe(&c)
	b.Publish(Event{Kind: KindPoll})
	if len(c.all()) != 2 {
		t.Fatal("unsubscribed sink still receiving")
	}
}

func TestBusNilSafe(t *testing.T) {
	var b *Bus
	b.Publish(Event{Kind: KindPoll}) // must not panic
	b.Subscribe(SinkFunc(func(Event) {}))
	b.Unsubscribe(nil)
	if b.Seq() != 0 {
		t.Fatal("nil bus claims sequence numbers")
	}
	PublishSessionStart(nil, "s", 0)
	PublishDecision(nil, "s", 0, true, true, 1, 1)
	PublishChainEvents(nil, "s", 0, nil)
	PublishVerdict(nil, "s", 0, audit.Verdict{}, 0, nil)
}

func TestBusReentrantPublish(t *testing.T) {
	b := NewBus()
	var c collect
	b.Subscribe(SinkFunc(func(e Event) {
		if e.Kind == KindSessionVerdict {
			// A sink publishing back onto the same bus (the SLO engine's
			// transition pattern) must not deadlock.
			b.Publish(Event{Kind: KindSLO})
		}
	}))
	b.Subscribe(&c)
	b.Publish(Event{Kind: KindSessionVerdict})
	kinds := map[Kind]int{}
	for _, e := range c.all() {
		kinds[e.Kind]++
	}
	if kinds[KindSessionVerdict] != 1 || kinds[KindSLO] != 1 {
		t.Fatalf("re-entrant publish delivered %v", kinds)
	}
}

func TestBusConcurrentPublish(t *testing.T) {
	b := NewBus()
	var c collect
	b.Subscribe(&c)
	var wg sync.WaitGroup
	const workers, per = 8, 100
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				b.Publish(Event{Kind: KindPoll, Poll: i})
			}
		}()
	}
	wg.Wait()
	if got := len(c.all()); got != workers*per {
		t.Fatalf("delivered %d events, want %d", got, workers*per)
	}
	if b.Seq() != workers*per {
		t.Fatalf("seq = %d, want %d", b.Seq(), workers*per)
	}
}

func TestEncodeEventPreservesSentinels(t *testing.T) {
	line, err := EncodeEvent(Event{Kind: KindAnomaly, Trial: -1, Poll: -1, CausalPoll: -1, Outcome: AnomalyWrongVerdict})
	if err != nil {
		t.Fatal(err)
	}
	var w map[string]any
	if err := json.Unmarshal(line, &w); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"trial", "poll", "causal_poll"} {
		if w[k].(float64) != -1 {
			t.Fatalf("%s = %v, want -1", k, w[k])
		}
	}
	if w["kind"] != "anomaly" {
		t.Fatalf("kind = %v", w["kind"])
	}
}

func TestLogSinkLevelsAndFormats(t *testing.T) {
	var buf bytes.Buffer
	s := NewLogSink(&buf, false, slog.LevelInfo)
	s.OnEvent(Event{Kind: KindPoll, Poll: 0, Trial: -1, CausalPoll: -1}) // debug: filtered
	s.OnEvent(Event{Kind: KindSessionVerdict, Session: "sess", Trial: 2, Poll: -1, Outcome: "correct", Correct: true, Polls: 7, Slots: 21, CausalPoll: -1})
	out := buf.String()
	if strings.Count(out, "\n") != 1 {
		t.Fatalf("want exactly the verdict line, got:\n%s", out)
	}
	for _, want := range []string{"session_verdict", "session=sess", "polls=7", "slots=21", "correct=true"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text log missing %q:\n%s", want, out)
		}
	}

	buf.Reset()
	j := NewLogSink(&buf, true, slog.LevelDebug)
	j.OnEvent(Event{Kind: KindPoll, Session: "sess", Trial: 0, Poll: 4, Bin: 8, Outcome: "empty", CausalPoll: -1})
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("json log line: %v\n%s", err, buf.String())
	}
	if rec["msg"] != "poll" || rec["bin"].(float64) != 8 || rec["outcome"] != "empty" {
		t.Fatalf("json log fields: %v", rec)
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo, "": slog.LevelInfo,
		"warn": slog.LevelWarn, "error": slog.LevelError,
	} {
		got, ok := ParseLevel(in)
		if !ok || got != want {
			t.Fatalf("ParseLevel(%q) = %v,%v", in, got, ok)
		}
	}
	if _, ok := ParseLevel("loud"); ok {
		t.Fatal("unknown level accepted")
	}
}

func TestFlightRecorderRingAndDump(t *testing.T) {
	dir := t.TempDir()
	f := NewFlightRecorder(4, dir)
	for i := 0; i < 6; i++ {
		f.OnEvent(Event{Kind: KindPoll, Seq: uint64(i + 1), Poll: i, Trial: -1, CausalPoll: -1})
	}
	snap := f.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("ring holds %d, want 4", len(snap))
	}
	if snap[0].Poll != 2 || snap[3].Poll != 5 {
		t.Fatalf("ring order wrong: %v .. %v", snap[0].Poll, snap[3].Poll)
	}
	f.OnEvent(Event{Kind: KindAnomaly, Seq: 7, Outcome: AnomalyWrongVerdict, Trial: -1, Poll: -1, CausalPoll: 3})
	dumps := f.Dumps()
	if len(dumps) != 1 {
		t.Fatalf("dumps = %v, want one", dumps)
	}
	data, err := os.ReadFile(dumps[0])
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != 1+4 {
		t.Fatalf("dump has %d lines, want header + 4 events", len(lines))
	}
	var header struct {
		Schema  string `json:"schema"`
		Version int    `json:"version"`
		Trigger string `json:"trigger"`
		Events  int    `json:"events"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &header); err != nil {
		t.Fatal(err)
	}
	if header.Schema != FlightSchema || header.Version != FlightVersion ||
		header.Trigger != AnomalyWrongVerdict || header.Events != 4 {
		t.Fatalf("header = %+v", header)
	}
	// The triggering anomaly is the last ringed event.
	var last wireEvent
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Kind != "anomaly" || last.CausalPoll != 3 {
		t.Fatalf("last dump line = %+v, want the anomaly with its causal poll", last)
	}
	if err := f.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestFlightRecorderDumpCap(t *testing.T) {
	dir := t.TempDir()
	f := NewFlightRecorder(8, dir)
	for i := 0; i < DefaultMaxDumps+5; i++ {
		f.OnEvent(Event{Kind: KindAnomaly, Outcome: AnomalySLO, Trial: -1, Poll: -1, CausalPoll: -1})
	}
	if got := len(f.Dumps()); got != DefaultMaxDumps {
		t.Fatalf("wrote %d dumps, want cap %d", got, DefaultMaxDumps)
	}
	// Recording continues past the cap.
	if len(f.Snapshot()) != 8 {
		t.Fatal("ring stopped recording after dump cap")
	}
}

func TestFlightRecorderDumpError(t *testing.T) {
	// Dump directory path collides with an existing file: every dump fails
	// but recording keeps going and Err surfaces the first failure.
	dir := t.TempDir()
	blocked := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(blocked, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	f := NewFlightRecorder(4, blocked)
	f.OnEvent(Event{Kind: KindAnomaly, Trial: -1, Poll: -1, CausalPoll: -1})
	if f.Err() == nil {
		t.Fatal("dump into a file path reported no error")
	}
	if len(f.Dumps()) != 0 {
		t.Fatal("failed dump still listed")
	}
}

func TestParseRules(t *testing.T) {
	rules, window, err := ParseRules("maxpolls=96,maxslots=288,minacc=0.99,window=500")
	if err != nil {
		t.Fatal(err)
	}
	if window != 500 || len(rules) != 3 {
		t.Fatalf("window=%d rules=%d", window, len(rules))
	}
	if rules[0].Name != "max_polls" || rules[0].Threshold != 96 || rules[0].Budget != 0 {
		t.Fatalf("rule 0 = %+v", rules[0])
	}
	if rules[2].Name != "min_accuracy" || math.Abs(rules[2].Budget-0.01) > 1e-9 {
		t.Fatalf("rule 2 = %+v", rules[2])
	}
	if _, _, err := ParseRules("maxpolls=96@0.01"); err != nil {
		t.Fatalf("budget suffix rejected: %v", err)
	}
	for _, bad := range []string{
		"", "bogus=1", "maxpolls", "maxpolls=0", "maxpolls=96@2",
		"minacc=0", "minacc=1.5", "minacc=0.9@0.1", "window=0", "window=10",
	} {
		if _, _, err := ParseRules(bad); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
}

// TestParseRulesRejectsNonFinite: NaN budgets and thresholds and
// windows beyond MaxWindow are rejected. A NaN budget made a rule that
// could never fail (frac > NaN is false), and an unbounded window made
// NewSLO allocate a ring of that many bytes.
func TestParseRulesRejectsNonFinite(t *testing.T) {
	for _, spec := range []string{
		"maxpolls=96@NaN", "maxslots=5@nan", "maxpolls=1@-NaN",
		"maxpolls=1@Inf", "maxpolls=1@-Inf", "maxslots=5@+inf",
		"minacc=NaN", "minacc=nan", "minacc=Inf", "minacc=-Inf",
		"minacc=0.9,window=9999999999", "minacc=0.9,window=1048577",
	} {
		if rules, window, err := ParseRules(spec); err == nil {
			t.Errorf("spec %q accepted: rules %+v window %d", spec, rules, window)
		}
	}
	if _, window, err := ParseRules(fmt.Sprintf("minacc=0.9,window=%d", MaxWindow)); err != nil || window != MaxWindow {
		t.Fatalf("window=MaxWindow: window %d, err %v", window, err)
	}
}

// FuzzParseRules: every accepted spec has finite thresholds, budgets in
// [0,1), at least one and at most maxRules rules, and a window in
// [1, MaxWindow].
func FuzzParseRules(f *testing.F) {
	for _, seed := range []string{
		"maxpolls=96,maxslots=288,minacc=0.99,window=500", "maxpolls=96@0.01",
		"minacc=NaN", "maxslots=5@nan", "window=9999999999,minacc=0.5", "",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		rules, window, err := ParseRules(spec)
		if err != nil {
			return
		}
		if window < 1 || window > MaxWindow {
			t.Fatalf("%q: window %d outside [1,%d]", spec, window, MaxWindow)
		}
		if len(rules) == 0 || len(rules) > maxRules {
			t.Fatalf("%q: %d rules", spec, len(rules))
		}
		for _, r := range rules {
			if math.IsNaN(r.Threshold) || math.IsInf(r.Threshold, 0) || r.Threshold <= 0 {
				t.Fatalf("%q: rule %s threshold %v", spec, r.Name, r.Threshold)
			}
			if !(r.Budget >= 0 && r.Budget < 1) {
				t.Fatalf("%q: rule %s budget %v", spec, r.Name, r.Budget)
			}
		}
	})
}

func TestSLOWindowAndTransitions(t *testing.T) {
	rules, window, err := ParseRules("minacc=0.5,window=4")
	if err != nil {
		t.Fatal(err)
	}
	b := NewBus()
	var c collect
	b.Subscribe(&c)
	s := NewSLO(rules, window, b)
	b.Subscribe(s)

	verdict := func(ok bool) {
		b.Publish(Event{Kind: KindSessionVerdict, Trial: -1, Poll: -1, Correct: ok, CausalPoll: -1})
	}
	verdict(true)
	verdict(false)
	if !s.Healthy() {
		t.Fatal("1/2 wrong within a 0.5 budget should pass")
	}
	verdict(false)
	if s.Healthy() {
		t.Fatal("2/3 wrong over a 0.5 budget should fail")
	}
	// The pass→fail transition publishes a KindSLO event and an anomaly.
	var slos, anomalies int
	for _, e := range c.all() {
		switch e.Kind {
		case KindSLO:
			slos++
		case KindAnomaly:
			if e.Outcome != AnomalySLO {
				t.Fatalf("anomaly outcome %q", e.Outcome)
			}
			anomalies++
		}
	}
	if slos != 1 || anomalies != 1 {
		t.Fatalf("transition published %d slo + %d anomaly events, want 1+1", slos, anomalies)
	}
	// Recovery: correct verdicts push the wrong ones out of the window.
	verdict(true)
	verdict(true)
	verdict(true) // window now holds f,t,t,t -> 1/4 violating
	if !s.Healthy() {
		t.Fatalf("window should have recovered: %+v", s.Report())
	}
	rep := s.Report()
	if rep.Verdicts != 6 || len(rep.Rules) != 1 {
		t.Fatalf("report = %+v", rep)
	}
	r := rep.Rules[0]
	if r.TotalViolations != 2 || r.Violations != 1 || r.Seen != 4 {
		t.Fatalf("rule report = %+v", r)
	}
}

func TestSLOBurnRate(t *testing.T) {
	rules, _, err := ParseRules("maxpolls=10@0.5")
	if err != nil {
		t.Fatal(err)
	}
	s := NewSLO(rules, 4, nil)
	s.OnEvent(Event{Kind: KindSessionVerdict, Polls: 20})
	s.OnEvent(Event{Kind: KindSessionVerdict, Polls: 5})
	r := s.Report().Rules[0]
	if r.ViolatingFrac != 0.5 || r.BurnRate != 1.0 {
		t.Fatalf("burn accounting: %+v", r)
	}
	// Zero-budget rule: violating means infinite burn, reported as -1.
	zr, _, _ := ParseRules("maxpolls=10")
	z := NewSLO(zr, 4, nil)
	z.OnEvent(Event{Kind: KindSessionVerdict, Polls: 20})
	if got := z.Report().Rules[0].BurnRate; got != -1 {
		t.Fatalf("zero-budget burn = %v, want -1", got)
	}
}

func TestPublisherStreamsPolls(t *testing.T) {
	b := NewBus()
	var c collect
	b.Subscribe(&c)
	q := NewPublisher(stubQuerier{}, b, "sess", 3)
	q.Query([]int{1, 2, 3})
	q.Query([]int{4})
	events := c.all()
	if len(events) != 2 {
		t.Fatalf("published %d events, want 2", len(events))
	}
	if events[0].Kind != KindPoll || events[0].Poll != 0 || events[0].Bin != 3 ||
		events[0].Session != "sess" || events[0].Trial != 3 || events[0].Outcome != "empty" {
		t.Fatalf("first poll event = %+v", events[0])
	}
	if events[1].Poll != 1 || events[1].Bin != 1 {
		t.Fatalf("second poll event = %+v", events[1])
	}
	if query.Root(q) == nil {
		t.Fatal("publisher breaks the chain walk")
	}
}

// stubQuerier answers Empty to everything.
type stubQuerier struct{}

func (stubQuerier) Query([]int) query.Response { return query.Response{Kind: query.Empty} }
func (stubQuerier) Traits() query.Traits       { return query.Traits{} }

func TestPublishChainEventsRetryExhaustion(t *testing.T) {
	b := NewBus()
	var c collect
	b.Subscribe(&c)
	rq := query.WithRetry(stubQuerier{}, query.RetryPolicy{MaxRetries: 2, Backoff: 1})
	rq.Query([]int{1}) // all attempts silent -> exhausted
	PublishChainEvents(b, "sess", 0, rq)
	var found bool
	for _, e := range c.all() {
		if e.Kind == KindRetryExhausted {
			found = true
			if e.Polls != 1 {
				t.Fatalf("exhausted polls = %d, want 1", e.Polls)
			}
		}
	}
	if !found {
		t.Fatal("no retry_exhausted event published")
	}
}

func TestPublishVerdictAnomalies(t *testing.T) {
	b := NewBus()
	var c collect
	b.Subscribe(&c)
	v := audit.Verdict{
		Decision: false, Truth: true, TrueX: 8,
		Outcome: audit.OutcomeWrongLoss, CausalPoll: 5, CausalClass: audit.ClassFalseNegative,
		Polls: 12,
		Violations: []audit.Violation{
			{Poll: 2, Invariant: audit.InvariantBinSubset, Detail: "bound broken"},
		},
	}
	PublishVerdict(b, "sess", 1, v, 36, nil)
	var verdicts, wrong, invariant int
	for _, e := range c.all() {
		switch {
		case e.Kind == KindSessionVerdict:
			verdicts++
			if e.Correct || e.Polls != 12 || e.Slots != 36 || e.CausalPoll != 5 {
				t.Fatalf("verdict event = %+v", e)
			}
		case e.Kind == KindAnomaly && e.Outcome == AnomalyWrongVerdict:
			wrong++
			if e.CausalPoll != 5 || !strings.Contains(e.Detail, "causal poll 5") {
				t.Fatalf("wrong-verdict anomaly = %+v", e)
			}
		case e.Kind == KindAnomaly && e.Outcome == AnomalyInvariant:
			invariant++
			if e.Poll != 2 {
				t.Fatalf("invariant anomaly = %+v", e)
			}
		}
	}
	if verdicts != 1 || wrong != 1 || invariant != 1 {
		t.Fatalf("published %d verdicts, %d wrong, %d invariant", verdicts, wrong, invariant)
	}
}

func TestPublishDecisionGrades(t *testing.T) {
	b := NewBus()
	var c collect
	b.Subscribe(&c)
	PublishDecision(b, "ok", 0, true, true, 3, 9)
	PublishDecision(b, "bad", 1, false, true, 4, 12)
	var correct, anomalies int
	for _, e := range c.all() {
		if e.Kind == KindSessionVerdict && e.Correct {
			correct++
		}
		if e.Kind == KindAnomaly {
			anomalies++
			if e.Session != "bad" {
				t.Fatalf("anomaly on session %q", e.Session)
			}
		}
	}
	if correct != 1 || anomalies != 1 {
		t.Fatalf("correct=%d anomalies=%d", correct, anomalies)
	}
}

func TestConfigBuild(t *testing.T) {
	var c Config
	if p, err := c.Build(nil, nil, false); err != nil || p != nil {
		t.Fatalf("disabled config built %v, %v", p, err)
	}
	if p, err := c.Build(nil, nil, true); err != nil || p == nil || p.Bus() == nil {
		t.Fatalf("forced build = %v, %v", p, err)
	}
	c = Config{Log: true, LogLevel: "loud"}
	if _, err := c.Build(&bytes.Buffer{}, nil, false); err == nil {
		t.Fatal("bad log level accepted")
	}
	c = Config{SLOSpec: "bogus"}
	if _, err := c.Build(nil, nil, false); err == nil {
		t.Fatal("bad slo spec accepted")
	}

	dir := t.TempDir()
	reg := metrics.New()
	c = Config{LogJSON: true, FlightDir: dir, SLOSpec: "minacc=0.5,window=4"}
	var buf bytes.Buffer
	p, err := c.Build(&buf, reg, false)
	if err != nil {
		t.Fatal(err)
	}
	if p.Recorder() == nil || p.SLO() == nil || p.Bus() == nil {
		t.Fatal("plane missing configured pieces")
	}
	p.Bus().Publish(Event{Kind: KindSessionVerdict, Trial: -1, Poll: -1, Correct: false, CausalPoll: -1})
	p.Bus().Publish(Event{Kind: KindSessionVerdict, Trial: -1, Poll: -1, Correct: false, CausalPoll: -1})
	if p.SLO().Healthy() {
		t.Fatal("slo should be failing")
	}
	if !p.Unhealthy() {
		t.Fatal("plane should report unhealthy")
	}
	// The registry sink counted the published events per kind.
	var counted int64
	for _, pt := range reg.Snapshot().Counters {
		if strings.HasPrefix(pt.Name, MetricEvents) && strings.Contains(pt.Name, "session_verdict") {
			counted = int64(pt.Value)
		}
	}
	if counted != 2 {
		t.Fatalf("registry counted %d verdict events, want 2", counted)
	}
	// The SLO failure raised an anomaly, which the recorder dumped.
	if len(p.Recorder().Dumps()) == 0 {
		t.Fatal("no flight dump after slo anomaly")
	}
	if s := p.Summary(); !strings.Contains(s, "flight recorder") || !strings.Contains(s, "min_accuracy") {
		t.Fatalf("summary missing sections:\n%s", s)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	// JSON log sink wrote records.
	if !strings.Contains(buf.String(), "session_verdict") {
		t.Fatal("log sink silent")
	}

	var nilPlane *Plane
	if nilPlane.Bus() != nil || nilPlane.Summary() != "" || nilPlane.Close() != nil || nilPlane.Unhealthy() {
		t.Fatal("nil plane not inert")
	}
}

func TestRuntimeSampling(t *testing.T) {
	reg := metrics.New()
	SampleRuntime(reg)
	want := map[string]bool{
		MetricGoroutines: false, MetricHeapBytes: false,
		MetricHeapObjects: false, MetricGCCycles: false, MetricGCPause: false,
	}
	snap := reg.Snapshot()
	for _, pt := range append(snap.Counters, snap.Gauges...) {
		if _, ok := want[pt.Name]; ok {
			want[pt.Name] = true
			if pt.Name == MetricGoroutines && pt.Value < 1 {
				t.Fatalf("goroutines = %v", pt.Value)
			}
		}
	}
	for name, seen := range want {
		if !seen {
			t.Fatalf("sampler missed %s", name)
		}
	}
	SampleRuntime(nil) // no-op

	stop := StartRuntimeSampler(reg, 0)
	stop()
	stop() // idempotent
	if noop := StartRuntimeSampler(nil, 0); noop == nil {
		t.Fatal("nil registry sampler")
	}
}

func TestWithPhase(t *testing.T) {
	ran := false
	WithPhase("test-phase", func() { ran = true })
	if !ran {
		t.Fatal("phase body not run")
	}
}
