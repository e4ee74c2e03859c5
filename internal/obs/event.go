// Package obs is the unified streaming observability plane over the
// three post-hoc layers (metrics, trace, audit) and the fault injector:
// where those record for exit-time dumps, obs streams while the run is
// still going.
//
// Four pieces share one structured event vocabulary:
//
//   - Bus (bus.go): a lock-light publish/subscribe fan-out of Events —
//     session starts and verdicts, poll outcomes, fault injections, retry
//     exhaustion, anomalies. Publishing consumes no randomness and never
//     touches a trial's RNG streams, so obs-on runs stay byte-identical
//     to bare ones (the CI identity test pins this). Poll events are
//     built only while some sink reads them (see PollBlind); otherwise
//     each session's polls reach the bus as one count, so the
//     obs_events_total poll series moves once per session.
//   - LogSink (log.go): log/slog text and JSON sinks behind the cmds'
//     -log/-log-json flags.
//   - FlightRecorder (recorder.go): a bounded ring of recent events that
//     dumps itself to disk when an anomaly event arrives — wrong verdict,
//     invariant violation, slot-budget overrun — so a failure deep in a
//     million-trial sweep is diagnosable without tracing everything.
//   - SLO (slo.go): declarative health rules (max polls/decision, max
//     virtual slots, min accuracy over a sliding window) evaluated live,
//     exposed with the metrics registry on the -metrics-addr endpoint
//     (/healthz, /slo, and an SSE stream at /events — http.go).
//
// Runtime attribution (runtime.go) rounds the plane out: pprof labels
// per experiment/phase and a runtime/metrics sampler folding heap, GC
// pause and goroutine gauges into the same registry the cost-model
// instruments live in.
package obs

import (
	"fmt"
	"log/slog"
)

// Kind classifies one observability event.
type Kind int

const (
	// KindSessionStart marks one query session beginning.
	KindSessionStart Kind = iota
	// KindPoll is one group poll's outcome; Outcome carries the response
	// kind and Bin the polled group size.
	KindPoll
	// KindSessionVerdict closes one session: Correct/Outcome grade the
	// decision (against the auditor's ground truth when available, the
	// configured truth otherwise) and Polls/Slots are its cost totals.
	KindSessionVerdict
	// KindFault is one injected fault (burst loss, churn, skew, decode
	// corruption), joined to its poll index.
	KindFault
	// KindRetryExhausted reports polls that used their whole retry budget
	// and still read silence.
	KindRetryExhausted
	// KindAnomaly flags a condition worth a flight-recorder dump: a wrong
	// verdict, an invariant violation, or an SLO budget overrun. Outcome
	// carries the anomaly reason slug.
	KindAnomaly
	// KindSLO marks an SLO rule transitioning between pass and fail.
	KindSLO
	// KindBench is one benchmark result line (cmd/tcastbench).
	KindBench
)

// NumKinds is the number of event kinds; Kind values are contiguous in
// [0, NumKinds) so they can index fixed-size per-kind arrays.
const NumKinds = 8

// Anomaly reason slugs carried in an anomaly event's Outcome field.
const (
	AnomalyWrongVerdict = "wrong_verdict"
	AnomalyInvariant    = "invariant_violation"
	AnomalySLO          = "slo_violation"
)

var kindNames = [NumKinds]string{
	"session_start", "poll", "session_verdict", "fault",
	"retry_exhausted", "anomaly", "slo", "bench",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k >= 0 && int(k) < NumKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Level maps an event kind to its log severity: per-poll and per-fault
// chatter is debug-level (visible with -log-level debug, always in the
// flight recorder and on /events), session verdicts are info, retry
// exhaustion and SLO transitions warn, and anomalies are errors.
func (k Kind) Level() slog.Level {
	switch k {
	case KindPoll, KindFault, KindSessionStart:
		return slog.LevelDebug
	case KindSessionVerdict, KindBench:
		return slog.LevelInfo
	case KindRetryExhausted, KindSLO:
		return slog.LevelWarn
	case KindAnomaly:
		return slog.LevelError
	default:
		return slog.LevelInfo
	}
}

// Event is one structured observability record. It is a flat value —
// publishing one allocates nothing beyond what sinks retain — with the
// unused fields of each kind left at their zero (or -1 sentinel) values.
type Event struct {
	// Seq is the bus-assigned publication number, strictly increasing per
	// bus.
	Seq uint64
	// Kind classifies the event.
	Kind Kind
	// Session labels the session the event belongs to (algorithm,
	// parameters, trial index), empty for non-session events.
	Session string
	// Trial is the trial index within its batch, -1 when not applicable.
	Trial int
	// Poll is the 0-based poll index within the session, -1 when the
	// event is not tied to one poll.
	Poll int
	// Bin is the polled group size on poll events.
	Bin int
	// Outcome is the kind-specific discriminator: the response kind of a
	// poll, the audit outcome of a verdict, the reason slug of an anomaly,
	// the rule name of an SLO transition, the benchmark name of a bench
	// result.
	Outcome string
	// Detail is the human-readable elaboration (fault description,
	// anomaly cause, rule state).
	Detail string
	// Polls and Slots are the session cost totals on verdict events (and
	// the benchmark's ns/op and allocs/op on bench events).
	Polls int
	Slots int64
	// Correct reports whether a verdict matched ground truth.
	Correct bool
	// CausalPoll is the first unsound poll explaining a wrong verdict,
	// -1 when none was identified.
	CausalPoll int
}

// attrs renders the event's populated fields as slog attributes.
func (e Event) attrs() []slog.Attr {
	out := make([]slog.Attr, 0, 10)
	out = append(out, slog.Uint64("seq", e.Seq))
	if e.Session != "" {
		out = append(out, slog.String("session", e.Session))
	}
	if e.Trial >= 0 {
		out = append(out, slog.Int("trial", e.Trial))
	}
	if e.Poll >= 0 {
		out = append(out, slog.Int("poll", e.Poll))
	}
	if e.Bin > 0 {
		out = append(out, slog.Int("bin", e.Bin))
	}
	if e.Outcome != "" {
		out = append(out, slog.String("outcome", e.Outcome))
	}
	if e.Detail != "" {
		out = append(out, slog.String("detail", e.Detail))
	}
	switch e.Kind {
	case KindSessionVerdict:
		out = append(out,
			slog.Int("polls", e.Polls),
			slog.Int64("slots", e.Slots),
			slog.Bool("correct", e.Correct))
		if e.CausalPoll >= 0 {
			out = append(out, slog.Int("causal_poll", e.CausalPoll))
		}
	case KindAnomaly:
		if e.CausalPoll >= 0 {
			out = append(out, slog.Int("causal_poll", e.CausalPoll))
		}
	case KindRetryExhausted:
		out = append(out, slog.Int("polls", e.Polls))
	}
	return out
}
