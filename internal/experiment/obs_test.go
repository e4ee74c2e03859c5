package experiment

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"tcast/internal/audit"
	"tcast/internal/faults"
	"tcast/internal/metrics"
	"tcast/internal/obs"
	"tcast/internal/query"
)

// TestObsPlaneByteIdentical pins the observability plane's determinism
// contract: a run publishing every session, poll and verdict onto a live
// event bus produces byte-identical artifacts — rendered tables, encoded
// traces, audit dumps — to a bare run. The publisher is one more read-only
// observer on the session's query.Tap and consumes no randomness, so
// watching a run must never change it. CI runs this under the race
// detector.
func TestObsPlaneByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-experiment sweep")
	}
	for _, id := range []string{"fig1", "fig3", "tab-acc"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			o := Options{Runs: 6, Seed: 42, Workers: 3}
			bareTab, bareTrace, bareAudit := runObserved(t, id, o)

			bus := obs.NewBus()
			// Sinks run on the publishing trial goroutines, so the counter
			// must be atomic — this test exists to run under -race.
			var events atomic.Int64
			bus.Subscribe(obs.SinkFunc(func(obs.Event) { events.Add(1) }))
			o.Obs = bus
			oTab, oTrace, oAudit := runObserved(t, id, o)

			if bareTab != oTab {
				t.Errorf("tables differ:\nbare:\n%s\nobserved:\n%s", bareTab, oTab)
			}
			if bareTrace != oTrace {
				t.Error("encoded traces differ between bare and observed runs")
			}
			if bareAudit != oAudit {
				t.Errorf("audit dumps differ:\nbare:\n%s\nobserved:\n%s", bareAudit, oAudit)
			}
			if events.Load() == 0 {
				t.Error("bus saw no events — plane not wired into the run")
			}
		})
	}
}

// TestObsEventStreamShape checks what a sweep actually publishes: every
// audited session opens with session_start, streams its polls, and closes
// with exactly one session_verdict whose poll count matches the streamed
// polls.
func TestObsEventStreamShape(t *testing.T) {
	e, err := Get("tab-acc")
	if err != nil {
		t.Fatal(err)
	}
	bus := obs.NewBus()
	var mu = make(chan struct{}, 1)
	mu <- struct{}{}
	perSession := map[string]*struct {
		starts, polls, verdicts int
		verdictPolls            int
	}{}
	bus.Subscribe(obs.SinkFunc(func(ev obs.Event) {
		<-mu
		defer func() { mu <- struct{}{} }()
		key := ev.Session
		s, ok := perSession[key]
		if !ok {
			s = &struct {
				starts, polls, verdicts int
				verdictPolls            int
			}{}
			perSession[key] = s
		}
		switch ev.Kind {
		case obs.KindSessionStart:
			s.starts++
		case obs.KindPoll:
			s.polls++
		case obs.KindSessionVerdict:
			s.verdicts++
			s.verdictPolls = ev.Polls
		}
	}))
	col := &audit.Collector{}
	if _, err := e.Run(Options{Runs: 4, Seed: 7, Workers: 2, Audit: col, Obs: bus}); err != nil {
		t.Fatal(err)
	}
	if len(perSession) == 0 {
		t.Fatal("no sessions observed")
	}
	for key, s := range perSession {
		if key == "" {
			continue // kind-less global events
		}
		if s.starts != 1 || s.verdicts != 1 {
			t.Fatalf("session %q: %d starts, %d verdicts", key, s.starts, s.verdicts)
		}
		if s.polls != s.verdictPolls {
			t.Fatalf("session %q: streamed %d polls, verdict says %d", key, s.polls, s.verdictPolls)
		}
	}
}

// TestObsAnomalyFlightDump drives the acceptance flow end to end inside
// the harness: heavy injected faults force wrong verdicts; each wrong
// verdict publishes an anomaly event carrying the causal poll the audit
// layer attributed; the flight recorder dumps the ring around it. The
// dump's trigger and its final event must both name the cause.
func TestObsAnomalyFlightDump(t *testing.T) {
	e, err := Get("tab-acc")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bus := obs.NewBus()
	rec := obs.NewFlightRecorder(128, dir)
	bus.Subscribe(rec)
	cfg, err := faults.ParseSpec("burst=6,frac=0.4")
	if err != nil {
		t.Fatal(err)
	}
	col := &audit.Collector{}
	if _, err := e.Run(Options{Runs: 40, Seed: 11, Workers: 4, Audit: col, Obs: bus, Faults: &cfg}); err != nil {
		t.Fatal(err)
	}
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}
	dumps := rec.Dumps()
	if len(dumps) == 0 {
		t.Fatal("heavy faults produced no flight dump")
	}
	data, err := os.ReadFile(dumps[0])
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	var header struct {
		Schema  string `json:"schema"`
		Trigger string `json:"trigger"`
		Events  int    `json:"events"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &header); err != nil {
		t.Fatal(err)
	}
	if header.Schema != obs.FlightSchema || header.Trigger != obs.AnomalyWrongVerdict {
		t.Fatalf("dump header = %+v", header)
	}
	if header.Events != len(lines)-1 {
		t.Fatalf("header says %d events, dump has %d lines", header.Events, len(lines)-1)
	}
	// The triggering anomaly closes the dump and names the causal poll.
	var last struct {
		Kind       string `json:"kind"`
		Detail     string `json:"detail"`
		CausalPoll int    `json:"causal_poll"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Kind != "anomaly" {
		t.Fatalf("dump closes with %q, want the anomaly", last.Kind)
	}
	if last.CausalPoll < 0 {
		t.Fatalf("anomaly has no causal poll: %+v", last)
	}
	if !strings.Contains(last.Detail, "causal poll") {
		t.Fatalf("anomaly detail does not name the causal poll: %q", last.Detail)
	}
}

// TestRetryExhaustedCounter pins query.Retry's exhaustion accounting,
// which the plane turns into retry_exhausted events.
func TestRetryExhaustedCounter(t *testing.T) {
	silent := queryFunc(func([]int) query.Response { return query.Response{Kind: query.Empty} })
	rq := query.WithRetry(silent, query.RetryPolicy{MaxRetries: 3, Backoff: 1}).(*query.Retry)
	for i := 0; i < 4; i++ {
		rq.Query([]int{1, 2})
	}
	if got := rq.Exhausted(); got != 4 {
		t.Fatalf("Exhausted() = %d, want 4", got)
	}
	loud := queryFunc(func([]int) query.Response { return query.Response{Kind: query.Active} })
	lq := query.WithRetry(loud, query.RetryPolicy{MaxRetries: 3, Backoff: 1}).(*query.Retry)
	lq.Query([]int{1})
	if got := lq.Exhausted(); got != 0 {
		t.Fatalf("non-silent query counted as exhausted: %d", got)
	}
}

// queryFunc adapts a function to query.Querier for test doubles.
type queryFunc func([]int) query.Response

func (f queryFunc) Query(bin []int) query.Response { return f(bin) }
func (f queryFunc) Traits() query.Traits           { return query.Traits{} }

// TestPollCountRegistryMatchesPollReader: observed figures, run in
// parallel on a poll-blind plane (sketch and the event counter), leave
// the same cost-model, audit and event-count series — every
// obs_events_total and tcast_audit_polls_total series included — as on
// the same plane with a sink that reads every poll event. (SLO
// transitions and the sweeps' timings depend on scheduling, so the test
// declares no rules and compares no timing.) CI runs it under the race
// detector at 1, 2 and 4 CPUs.
func TestPollCountRegistryMatchesPollReader(t *testing.T) {
	run := func(readPolls bool) string {
		reg := metrics.New()
		plane, err := obs.Config{Sketch: true}.Build(io.Discard, reg, true)
		if err != nil {
			t.Fatal(err)
		}
		var read atomic.Int64
		if readPolls {
			plane.Bus().Subscribe(obs.SinkFunc(func(e obs.Event) {
				if e.Kind == obs.KindPoll {
					read.Add(1)
				}
			}))
		}
		fcfg, err := faults.ParseSpec("burst=6,frac=0.3")
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []string{"fig1", "fig5"} {
			e, err := Get(id)
			if err != nil {
				t.Fatal(err)
			}
			o := Options{Runs: 4, Seed: 5, Workers: 3, Metrics: reg, Audit: &audit.Collector{}, Obs: plane.Bus()}
			if id == "fig5" {
				o.Faults, o.Retry = &fcfg, query.RetryPolicy{MaxRetries: 1, Backoff: 1}
			}
			if _, err := e.Run(o); err != nil {
				t.Fatal(err)
			}
		}
		polls := reg.Counter(obs.MetricEvents, "kind", obs.KindPoll.String()).Value()
		if polls == 0 || (readPolls && read.Load() != polls) {
			t.Fatalf("%s{kind=poll} = %d with %d poll events read", obs.MetricEvents, polls, read.Load())
		}
		var b strings.Builder
		snap := reg.Snapshot()
		for _, c := range snap.Counters {
			if strings.HasPrefix(c.Name, "tcast_") || strings.HasPrefix(c.Name, obs.MetricEvents) {
				fmt.Fprintf(&b, "%s %v\n", c.Name, c.Value)
			}
		}
		for _, h := range snap.Histograms {
			if strings.HasPrefix(h.Name, "tcast_") {
				fmt.Fprintf(&b, "%s count=%d sum=%v\n", h.Name, h.Count, h.Sum)
			}
		}
		return b.String()
	}
	if blind, reading := run(false), run(true); blind != reading {
		t.Fatalf("registries differ:\npoll-blind:\n%s\npoll-reading:\n%s", blind, reading)
	}
}
