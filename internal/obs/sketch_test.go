package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"tcast/internal/metrics"
)

// verdict builds a session-verdict event with the given costs.
func verdict(session string, trial, polls int, slots int64) Event {
	return Event{
		Kind: KindSessionVerdict, Session: session, Trial: trial,
		Poll: -1, Polls: polls, Slots: slots, Correct: true, CausalPoll: -1,
	}
}

func TestSketchSinkSnapshot(t *testing.T) {
	reg := metrics.New()
	s := NewSketchSink(reg)
	for i := 0; i < 100; i++ {
		s.OnEvent(verdict("2tbins", i, 10+i%3, int64(20+i%5)))
	}
	// Non-verdict events must be ignored.
	s.OnEvent(Event{Kind: KindPoll, Polls: 9999, Slots: 9999})

	rep := s.Snapshot()
	if rep.Sessions != 100 {
		t.Fatalf("sessions = %d, want 100", rep.Sessions)
	}
	if rep.Polls.Min != 10 || rep.Polls.Max != 12 {
		t.Errorf("polls min/max = %g/%g, want 10/12", rep.Polls.Min, rep.Polls.Max)
	}
	if rep.Slots.Min != 20 || rep.Slots.Max != 24 {
		t.Errorf("slots min/max = %g/%g, want 20/24", rep.Slots.Min, rep.Slots.Max)
	}
	if rep.Polls.P50 < 10*0.98 || rep.Polls.P50 > 12*1.02 {
		t.Errorf("polls p50 = %g out of range", rep.Polls.P50)
	}
	if len(rep.Exemplars) == 0 || len(rep.Exemplars) > sketchExemplars {
		t.Fatalf("exemplars = %d, want 1..%d", len(rep.Exemplars), sketchExemplars)
	}
	for _, ex := range rep.Exemplars {
		if ex.Session != "2tbins" {
			t.Errorf("exemplar session %q", ex.Session)
		}
	}

	// Registry mirrors see the same observations.
	snap := reg.Snapshot()
	found := 0
	for _, sm := range snap.Summaries {
		if sm.Name == MetricSessionPolls || sm.Name == MetricSessionSlots {
			found++
			if sm.Count != 100 {
				t.Errorf("%s count = %d, want 100", sm.Name, sm.Count)
			}
		}
	}
	if found != 2 {
		t.Fatalf("registry summaries found = %d, want 2", found)
	}
}

// TestSketchSinkDeterministic: two sinks fed the same stream snapshot
// identically, including exemplar selection.
func TestSketchSinkDeterministic(t *testing.T) {
	feed := func() SketchReport {
		s := NewSketchSink(nil)
		for i := 0; i < 500; i++ {
			s.OnEvent(verdict("q", i, i%17, int64(i%29)))
		}
		return s.Snapshot()
	}
	a, _ := json.Marshal(feed())
	b, _ := json.Marshal(feed())
	if string(a) != string(b) {
		t.Fatalf("snapshots differ:\n%s\n%s", a, b)
	}
}

// TestSLOHandlerIncludesSketchesAndDrops: the /slo payload carries the
// sketch snapshot and the dropped-event total.
func TestSLOHandlerIncludesSketchesAndDrops(t *testing.T) {
	reg := metrics.New()
	sink := NewSketchSink(nil)
	sink.OnEvent(verdict("2tbins", 0, 12, 36))
	dropped := reg.Counter(MetricEventsDropped)
	dropped.Add(7)

	rec := httptest.NewRecorder()
	SLOHandler(nil, sink, dropped).ServeHTTP(rec, httptest.NewRequest("GET", "/slo", nil))
	var rep Report
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.EventsDropped != 7 {
		t.Errorf("events_dropped = %d, want 7", rep.EventsDropped)
	}
	if rep.Sketches == nil || rep.Sketches.Sessions != 1 {
		t.Fatalf("sketches = %+v", rep.Sketches)
	}
	if rep.Sketches.Slots.Max != 36 {
		t.Errorf("sketch slots max = %g, want 36", rep.Sketches.Slots.Max)
	}
	if !strings.Contains(rec.Body.String(), `"events_dropped"`) ||
		!strings.Contains(rec.Body.String(), `"sketches"`) {
		t.Fatalf("payload missing keys:\n%s", rec.Body.String())
	}
}

// TestSSEDropFeedsCounter: a client that never reads overflows its buffer
// and every overflow lands on the shared counter.
func TestSSEDropFeedsCounter(t *testing.T) {
	reg := metrics.New()
	total := reg.Counter(MetricEventsDropped)
	sink := &sseSink{ch: make(chan Event, 2), total: total}
	for i := 0; i < 10; i++ {
		sink.OnEvent(verdict("slow", i, 1, 1))
	}
	if d := sink.dropped.Load(); d != 8 {
		t.Fatalf("per-client dropped = %d, want 8", d)
	}
	if v := total.Value(); v != 8 {
		t.Fatalf("%s = %d, want 8", MetricEventsDropped, v)
	}
}

// TestPlaneBuildsSketch: -sketch alone enables the plane, wires the sink
// to the bus, and the exit summary names the sessions it saw.
func TestPlaneBuildsSketch(t *testing.T) {
	cfg := Config{Sketch: true}
	if !cfg.Enabled() {
		t.Fatal("Sketch should enable the plane")
	}
	reg := metrics.New()
	p, err := cfg.Build(nil, reg, false)
	if err != nil {
		t.Fatal(err)
	}
	if p.Sketches() == nil {
		t.Fatal("plane has no sketch sink")
	}
	if p.EventsDropped() == nil {
		t.Fatal("plane has no dropped counter")
	}
	p.Bus().Publish(verdict("2tbins", 3, 24, 72))
	if got := p.Sketches().Snapshot().Sessions; got != 1 {
		t.Fatalf("sink saw %d sessions, want 1", got)
	}
	sum := p.Summary()
	if !strings.Contains(sum, "sketch: 1 sessions") || !strings.Contains(sum, "2tbins") {
		t.Fatalf("summary = %q", sum)
	}

	// The mux serves the sink on /slo.
	mux := NewMux(reg, p)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/slo", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"sessions": 1`) {
		t.Fatalf("/slo: %d\n%s", rec.Code, rec.Body.String())
	}
}

func TestReservoirDeterministicTopK(t *testing.T) {
	offers := make([]exemplar, 100)
	for i := range offers {
		offers[i] = exemplar{key: uint64(i), weight: float64(1 + i%10), slots: float64(i), label: "t"}
	}
	fill := func(order []int) []exemplar {
		var r reservoir
		for _, i := range order {
			r.offer(offers[i])
		}
		return r.items
	}
	asc := make([]int, len(offers))
	desc := make([]int, len(offers))
	for i := range asc {
		asc[i] = i
		desc[i] = len(offers) - 1 - i
	}
	a, d := fill(asc), fill(desc)
	if len(a) != sketchExemplars || !slices.Equal(a, d) {
		t.Errorf("offer order changed reservoir contents\n asc: %v\ndesc: %v", a, d)
	}
	for i := 1; i < len(a); i++ {
		if !a[i-1].before(&a[i]) {
			t.Errorf("items %d and %d out of priority order", i-1, i)
		}
	}

	// Re-offering a (key, weight) updates in place without growing.
	var r reservoir
	r.offer(exemplar{key: 1, weight: 2, slots: 10})
	r.offer(exemplar{key: 1, weight: 2, slots: 20})
	if n := len(r.items); n != 1 {
		t.Fatalf("duplicate key grew reservoir to %d", n)
	}
	if got := r.items[0].slots; got != 20 {
		t.Errorf("re-offer kept stale value %v", got)
	}
}

func TestReservoirWeightBias(t *testing.T) {
	// With many light items and a few very heavy ones, the heavy keys
	// should dominate the retained set.
	var r reservoir
	heavy := map[uint64]bool{}
	for i := uint64(0); i < 1000; i++ {
		w := 1.0
		if i%100 == 0 {
			w = 1e6
			heavy[i] = true
		}
		r.offer(exemplar{key: i, weight: w})
	}
	kept := 0
	for _, ex := range r.items {
		if heavy[ex.key] {
			kept++
		}
	}
	if kept < sketchExemplars-1 {
		t.Errorf("only %d/%d heavy exemplars retained", kept, sketchExemplars)
	}
}
