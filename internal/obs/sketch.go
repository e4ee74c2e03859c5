package obs

import (
	"fmt"
	"strings"
	"sync"

	"tcast/internal/metrics"
	"tcast/internal/sketch"
)

// Metric names for the sketch sink's registry summaries and the SSE drop
// counter.
const (
	// MetricEventsDropped counts events dropped toward slow /events
	// clients — silent loss made visible, summed over all clients.
	MetricEventsDropped = "obs_events_dropped_total"
	// MetricSessionPolls / MetricSessionSlots are the sketch-backed
	// session-cost summaries (quantiles on /metrics dumps).
	MetricSessionPolls = "obs_session_polls"
	MetricSessionSlots = "obs_session_slots"
)

// sketchExemplars is the exemplar reservoir capacity: enough to name the
// heaviest sessions without the /slo payload growing with the run.
const sketchExemplars = 8

// SketchSink folds the live verdict stream into constant-memory
// summaries: quantile sketches of per-session poll and slot costs, exact
// moments, and a deterministic slot-weighted reservoir of exemplar
// sessions. Where the SLO engine answers "is the run healthy",
// the sketch sink answers "what does the cost distribution look like" —
// at any N, for any run length, in a few kilobytes.
//
// The sink consumes no randomness (reservoir priorities are hashes of
// the session identity), so enabling it cannot perturb a run.
type SketchSink struct {
	mu        sync.Mutex
	sessions  uint64
	polls     *sketch.Quantile
	slots     *sketch.Quantile
	pollsMom  sketch.Moments
	slotsMom  sketch.Moments
	exemplars *sketch.Reservoir

	// Optional registry mirrors: the same observations surfaced as
	// summary metrics on /metrics text/Prometheus dumps.
	mPolls, mSlots *metrics.Summary
}

// NewSketchSink returns an empty sink; reg, when non-nil, additionally
// receives the obs_session_polls/obs_session_slots summaries.
func NewSketchSink(reg *metrics.Registry) *SketchSink {
	s := &SketchSink{
		polls:     sketch.NewQuantile(sketch.DefaultAlpha),
		slots:     sketch.NewQuantile(sketch.DefaultAlpha),
		exemplars: sketch.NewReservoir(sketchExemplars),
	}
	if reg != nil {
		s.mPolls = reg.Summary(MetricSessionPolls)
		s.mSlots = reg.Summary(MetricSessionSlots)
	}
	return s
}

// OnEvent implements Sink: only session verdicts are summarized.
func (s *SketchSink) OnEvent(e Event) {
	if e.Kind != KindSessionVerdict {
		return
	}
	polls := float64(e.Polls)
	slots := float64(e.Slots)
	s.mu.Lock()
	s.sessions++
	s.polls.Observe(polls)
	s.slots.Observe(slots)
	s.pollsMom.Observe(polls)
	s.slotsMom.Observe(slots)
	key := sketch.HashString(e.Session)
	if e.Trial >= 0 {
		key = sketch.Hash64(key ^ uint64(e.Trial))
	}
	s.exemplars.Offer(sketch.Exemplar{
		Key:    key,
		Weight: slots + 1, // +1 keeps zero-slot sessions sampleable
		Value:  slots,
		Label:  e.Session,
	})
	s.mu.Unlock()
	if s.mPolls != nil {
		s.mPolls.Observe(polls)
		s.mSlots.Observe(slots)
	}
}

// QuantileReport is one cost dimension's summary in a SketchReport.
type QuantileReport struct {
	Min float64 `json:"min"`
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
	Sum float64 `json:"sum"`
}

// ExemplarReport is one retained exemplar session in a SketchReport.
type ExemplarReport struct {
	Session string  `json:"session"`
	Slots   float64 `json:"slots"`
}

// SketchReport is the sink's snapshot on the /slo payload.
type SketchReport struct {
	Sessions  uint64           `json:"sessions"`
	Polls     QuantileReport   `json:"polls"`
	Slots     QuantileReport   `json:"slots"`
	Exemplars []ExemplarReport `json:"exemplars,omitempty"`
}

func quantileReport(q *sketch.Quantile, mom sketch.Moments) QuantileReport {
	if q.Count() == 0 {
		return QuantileReport{}
	}
	vs := q.Values(0.5, 0.9, 0.99)
	return QuantileReport{
		Min: mom.Min, P50: vs[0], P90: vs[1], P99: vs[2], Max: mom.Max, Sum: mom.Sum,
	}
}

// Snapshot captures the sink's current summaries.
func (s *SketchSink) Snapshot() SketchReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep := SketchReport{
		Sessions: s.sessions,
		Polls:    quantileReport(s.polls, s.pollsMom),
		Slots:    quantileReport(s.slots, s.slotsMom),
	}
	for _, ex := range s.exemplars.Exemplars() {
		rep.Exemplars = append(rep.Exemplars, ExemplarReport{Session: ex.Label, Slots: ex.Value})
	}
	return rep
}

// Summary renders the snapshot for the plane's exit report.
func (s *SketchSink) Summary() string {
	rep := s.Snapshot()
	if rep.Sessions == 0 {
		return "sketch: no sessions observed\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "sketch: %d sessions; polls p50=%.3g p90=%.3g p99=%.3g max=%.3g; slots p50=%.3g p90=%.3g p99=%.3g max=%.3g\n",
		rep.Sessions,
		rep.Polls.P50, rep.Polls.P90, rep.Polls.P99, rep.Polls.Max,
		rep.Slots.P50, rep.Slots.P90, rep.Slots.P99, rep.Slots.Max)
	for _, ex := range rep.Exemplars {
		fmt.Fprintf(&b, "  exemplar %s slots=%g\n", ex.Session, ex.Slots)
	}
	return b.String()
}
