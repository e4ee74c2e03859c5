package obs

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"tcast/internal/metrics"
	"tcast/internal/rng"
)

// Metric names for the sketch sink's registry summaries and the SSE drop
// counter.
const (
	// MetricEventsDropped counts events dropped toward slow /events
	// clients — silent loss made visible, summed over all clients.
	MetricEventsDropped = "obs_events_dropped_total"
	// MetricSessionPolls / MetricSessionSlots are the sketch sink's
	// session-cost summaries (quantiles on /metrics dumps).
	MetricSessionPolls = "obs_session_polls"
	MetricSessionSlots = "obs_session_slots"
)

// sketchExemplars is the exemplar reservoir capacity: enough to name the
// heaviest sessions without the /slo payload growing with the run.
const sketchExemplars = 8

// SketchSink folds the live verdict stream into constant-memory
// summaries: quantile sketches of per-session poll and slot costs with
// exact count/sum/min/max, and a deterministic slot-weighted reservoir
// of exemplar sessions. Where the SLO engine answers "is the run
// healthy", the sketch sink answers "what does the cost distribution
// look like" — at any N, for any run length, in a few kilobytes.
//
// The sink consumes no randomness (reservoir priorities are hashes of
// the session identity), so enabling it cannot perturb a run.
type SketchSink struct {
	// mu covers both summaries and the reservoir, so a snapshot sees one
	// verdict stream prefix in all three.
	mu           sync.Mutex
	polls, slots *metrics.Summary
	exemplars    reservoir
}

// NewSketchSink returns an empty sink. With a registry, its cost
// summaries are the registry's obs_session_polls/obs_session_slots, so
// /metrics dumps show the same observations; sinks built on one registry
// share them.
func NewSketchSink(reg *metrics.Registry) *SketchSink {
	if reg == nil {
		return &SketchSink{polls: metrics.NewSummary(), slots: metrics.NewSummary()}
	}
	return &SketchSink{polls: reg.Summary(MetricSessionPolls), slots: reg.Summary(MetricSessionSlots)}
}

// ReadsPolls implements PollBlind: only session verdicts are summarized.
func (s *SketchSink) ReadsPolls() bool { return false }

// OnPolls implements PollBlind.
func (s *SketchSink) OnPolls(uint64) {}

// OnEvent implements Sink: only session verdicts are summarized.
func (s *SketchSink) OnEvent(e Event) {
	if e.Kind != KindSessionVerdict {
		return
	}
	slots := float64(e.Slots)
	key := rng.HashString(e.Session)
	if e.Trial >= 0 {
		key = rng.Hash64(key ^ uint64(e.Trial))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.polls.Observe(float64(e.Polls))
	s.slots.Observe(slots)
	s.exemplars.offer(exemplar{
		key:    key,
		weight: slots + 1, // +1 keeps zero-slot sessions sampleable
		slots:  slots,
		label:  e.Session,
	})
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

func quantileReport(sv metrics.SummaryValue) QuantileReport {
	if sv.Count == 0 {
		return QuantileReport{}
	}
	return QuantileReport{
		Min: sv.Min, P50: sv.Quantiles[0].Value, P90: sv.Quantiles[1].Value,
		P99: sv.Quantiles[2].Value, Max: sv.Max, Sum: sv.Sum,
	}
}

// Snapshot captures the sink's current summaries.
func (s *SketchSink) Snapshot() SketchReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	polls := s.polls.Snapshot()
	rep := SketchReport{
		Sessions: polls.Count,
		Polls:    quantileReport(polls),
		Slots:    quantileReport(s.slots.Snapshot()),
	}
	for _, ex := range s.exemplars.items {
		rep.Exemplars = append(rep.Exemplars, ExemplarReport{Session: ex.label, Slots: ex.slots})
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

// exemplar is one session offered to the reservoir: its identity key,
// sampling weight, slot cost and name, with the priority offer derives.
type exemplar struct {
	key    uint64
	weight float64
	slots  float64
	label  string
	prio   float64
}

// reservoir keeps a bounded, weighted sample of exemplars without
// consuming any randomness: each offered item's priority is u^(1/weight)
// with u derived from rng.Hash64(key) (the A-ExpJ weighted reservoir rule
// with the uniform draw replaced by a hash), and the sketchExemplars
// highest-priority items survive, in descending priority order. Because
// the priority is a pure function of (key, weight), identical runs
// retain identical exemplars regardless of worker count or offer order.
// Ties (possible only for duplicate keys) break toward the smaller key,
// then label. The zero value is empty.
type reservoir struct {
	items []exemplar
}

// priority maps an exemplar to its deterministic sampling priority
// u^(1/w), u = (Hash64(key)+1)/2^64 in (0,1]. Non-positive weights get
// priority 0 (kept only if space remains over every weighted item).
func priority(key uint64, weight float64) float64 {
	if weight <= 0 {
		return 0
	}
	u := (float64(rng.Hash64(key)) + 1) / math.Exp2(64)
	return math.Pow(u, 1/weight)
}

// before reports whether a ranks ahead of b.
func (a *exemplar) before(b *exemplar) bool {
	if a.prio != b.prio {
		return a.prio > b.prio
	}
	if a.key != b.key {
		return a.key < b.key
	}
	return a.label < b.label
}

// offer proposes an exemplar; it is retained iff its priority ranks in
// the top sketchExemplars of everything offered so far. Re-offering the
// same (key, weight) replaces the previous entry in place.
func (r *reservoir) offer(ex exemplar) {
	ex.prio = priority(ex.key, ex.weight)
	for i := range r.items {
		if r.items[i].key == ex.key && r.items[i].weight == ex.weight {
			r.items[i] = ex
			return
		}
	}
	i := 0
	for i < len(r.items) && !ex.before(&r.items[i]) {
		i++
	}
	if i == sketchExemplars {
		return
	}
	r.items = slices.Insert(r.items, i, ex)
	if len(r.items) > sketchExemplars {
		r.items = r.items[:sketchExemplars]
	}
}
