package session

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"tcast/internal/audit"
	"tcast/internal/fastsim"
	"tcast/internal/faults"
	"tcast/internal/metrics"
	"tcast/internal/obs"
	"tcast/internal/query"
	"tcast/internal/rng"
)

// blindSink is a poll-blind test sink: it records every event it is
// shown, and the poll counts the bus hands it in their place.
type blindSink struct {
	events    []string
	pollEvent int // KindPoll events shown despite ReadsPolls
	onPolls   []uint64
}

func (s *blindSink) OnEvent(e obs.Event) {
	if e.Kind == obs.KindPoll {
		s.pollEvent++
	}
	s.events = append(s.events, fmt.Sprintf("%+v", e))
}

func (s *blindSink) ReadsPolls() bool { return false }

func (s *blindSink) OnPolls(n uint64) { s.onPolls = append(s.onPolls, n) }

// eventTotals reads obs_events_total for every kind from reg.
func eventTotals(reg *metrics.Registry) [obs.NumKinds]int64 {
	var out [obs.NumKinds]int64
	for k := obs.Kind(0); int(k) < obs.NumKinds; k++ {
		out[k] = reg.Counter(obs.MetricEvents, "kind", k.String()).Value()
	}
	return out
}

// observedPlane builds the plane the observed figure sweeps run: sketch,
// SLO rules slo (none when empty) and the registry's event counter, all
// poll-blind, plus sink.
func observedPlane(t *testing.T, slo string, sink obs.Sink) (*obs.Bus, *metrics.Registry) {
	t.Helper()
	reg := metrics.New()
	plane, err := obs.Config{Sketch: true, SLOSpec: slo}.Build(io.Discard, reg, true)
	if err != nil {
		t.Fatal(err)
	}
	plane.Bus().Subscribe(sink)
	return plane.Bus(), reg
}

// testSLO declares rules that some test sessions break, so the SLO
// engine publishes transitions back onto the bus.
const testSLO = "maxpolls=40,minacc=0.9,window=8"

// runObservedSerial runs trials audited, faulted and retried sessions in
// order on bus, publishing each.
func runObservedSerial(t *testing.T, bus *obs.Bus, reg *metrics.Registry, trials int) int {
	t.Helper()
	fcfg, err := faults.ParseSpec("burst=6,frac=0.3,churn=0.01")
	if err != nil {
		t.Fatal(err)
	}
	var s Session
	polls := 0
	for i := 0; i < trials; i++ {
		sp := Spec{
			N: 64, T: 8, X: 3 + i, Collision: fastsim.DefaultConfig(), Alg: "2tbins",
			Label: "s", Trial: i, Metrics: reg, Audit: &audit.Collector{}, Obs: bus,
		}
		if i%2 == 1 {
			sp.Faults, sp.Retry = &fcfg, query.RetryPolicy{MaxRetries: 1, Backoff: 1}
		}
		if err := s.Reset(sp, rng.New(21).Split(uint64(i))); err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		polls += res.Queries
		s.Publish()
	}
	return polls
}

// TestPollCountSeqContract: a serial observed run on a poll-blind bus
// publishes the same non-poll events, with the same Seq, as the same run
// on a bus where a sink reads polls, and every obs_events_total series
// reads the same. The poll-blind sink is shown no poll event and one
// poll count per session.
func TestPollCountSeqContract(t *testing.T) {
	const trials = 12
	blind := &blindSink{}
	blindBus, blindReg := observedPlane(t, testSLO, blind)
	blindPolls := runObservedSerial(t, blindBus, blindReg, trials)

	reading := &blindSink{}
	readingBus, readingReg := observedPlane(t, testSLO, reading)
	var pollEvents []obs.Event
	readingBus.Subscribe(obs.SinkFunc(func(e obs.Event) {
		if e.Kind == obs.KindPoll {
			pollEvents = append(pollEvents, e)
		}
	}))
	readingPolls := runObservedSerial(t, readingBus, readingReg, trials)

	if blindPolls != readingPolls || len(pollEvents) == 0 {
		t.Fatalf("runs polled %d and %d times, %d poll events read", blindPolls, readingPolls, len(pollEvents))
	}
	if blind.pollEvent != 0 || len(blind.onPolls) != trials {
		t.Fatalf("poll-blind bus showed %d poll events and %d poll counts, want 0 and one per session", blind.pollEvent, len(blind.onPolls))
	}
	var counted uint64
	for _, n := range blind.onPolls {
		counted += n
	}
	if counted != uint64(len(pollEvents)) {
		t.Fatalf("poll counts sum to %d, the reading bus published %d poll events", counted, len(pollEvents))
	}
	var nonPoll []string
	for _, e := range reading.events {
		if !strings.Contains(e, "Kind:poll ") {
			nonPoll = append(nonPoll, e)
		}
	}
	if len(reading.events) != len(nonPoll)+len(pollEvents) {
		t.Fatalf("reading bus: %d events, %d non-poll and %d poll", len(reading.events), len(nonPoll), len(pollEvents))
	}
	if !slices.Equal(blind.events, nonPoll) {
		t.Fatalf("non-poll events differ:\npoll-blind:\n%s\npoll-reading:\n%s", strings.Join(blind.events, "\n"), strings.Join(nonPoll, "\n"))
	}
	if b, r := eventTotals(blindReg), eventTotals(readingReg); b != r {
		t.Fatalf("obs_events_total %v on the poll-blind bus, %v on the reading bus", b, r)
	}
	var b, r strings.Builder
	if err := metrics.WriteText(&b, blindReg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := metrics.WriteText(&r, readingReg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if b.String() != r.String() {
		t.Fatalf("registries differ:\npoll-blind:\n%s\npoll-reading:\n%s", b.String(), r.String())
	}
}

// TestPollCountErroredSession: a session that errors mid-run still
// counts its polls exactly, on the bus and in the audit class partition,
// and claims their Seq before the next event.
func TestPollCountErroredSession(t *testing.T) {
	sink := &blindSink{}
	bus, reg := observedPlane(t, testSLO, sink)
	alg := failingAlg{bins: [][]int{{0, 1, 2}, {3}, {4, 5, 6, 7, 8}}}
	var s Session
	sp := Spec{N: 16, T: 2, X: 4, Collision: fastsim.DefaultConfig(), Algorithm: alg,
		Metrics: reg, Audit: &audit.Collector{}, Obs: bus}
	if err := s.Reset(sp, rng.New(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err == nil {
		t.Fatal("failing algorithm reported no error")
	}
	s.Publish()
	if got := reg.Counter(obs.MetricEvents, "kind", obs.KindPoll.String()).Value(); got != 3 {
		t.Errorf("%s{kind=poll} = %d, want 3", obs.MetricEvents, got)
	}
	var graded int64
	for c := audit.Class(0); int(c) < audit.NumClasses; c++ {
		graded += reg.Counter(audit.MetricAuditPolls, "class", c.String()).Value()
	}
	if graded != 3 {
		t.Errorf("%s sums to %d, want 3", audit.MetricAuditPolls, graded)
	}
	bus.Publish(obs.Event{Kind: obs.KindBench})
	if last := sink.events[len(sink.events)-1]; !strings.HasPrefix(last, "{Seq:5 ") {
		t.Errorf("event after a start and 3 counted polls = %s, want Seq 5", last)
	}
}

// TestPollCountNoSinkCallPerPoll: on a poll-blind bus a warm observed
// session calls no sink per poll: with no SLO rules its sinks see the
// session start, the verdict with its anomalies and one poll count,
// however many polls it ran.
func TestPollCountNoSinkCallPerPoll(t *testing.T) {
	sink := &blindSink{}
	bus, reg := observedPlane(t, "", sink)
	var s Session
	for i := 0; i < 6; i++ {
		before := len(sink.events)
		sp := Spec{N: 128, T: 16, X: 12 + i, Collision: fastsim.DefaultConfig(), Alg: "2tbins",
			Label: "s", Trial: i, Metrics: reg, Audit: &audit.Collector{}, Obs: bus}
		if err := s.Reset(sp, rng.New(3).Split(uint64(i))); err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		s.Publish()
		v, _ := s.Verdict()
		want := 2 + len(v.Violations)
		if !v.Correct() {
			want++
		}
		if got := len(sink.events) - before; got != want || res.Queries < 16 {
			t.Fatalf("trial %d: %d sink calls for a session of %d polls, want %d", i, got, res.Queries, want)
		}
		if got := sink.onPolls[len(sink.onPolls)-1]; got != uint64(res.Queries) {
			t.Fatalf("trial %d: poll count %d, want %d", i, got, res.Queries)
		}
	}
}
