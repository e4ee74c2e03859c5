package metrics

import (
	"tcast/internal/query"
)

// Default bucket shapes for the querier instruments. Poll counts and bin
// sizes are power-of-two up to well beyond the paper's n=128 scale;
// the 2t-bins worst case at n=128, t=16 stays under 128 polls.
var (
	// SessionBuckets bounds per-session totals (polls, slots, nodes).
	SessionBuckets = ExponentialBuckets(1, 2, 14) // 1 .. 8192
	// BinSizeBuckets bounds per-poll group sizes.
	BinSizeBuckets = ExponentialBuckets(1, 2, 11) // 1 .. 1024
	// TimeBuckets bounds wall-clock durations in seconds, 100 µs .. ~53 min.
	TimeBuckets = ExponentialBuckets(1e-4, 2, 25)
)

// Metric names recorded by InstrumentedQuerier, in the paper's cost-model
// vocabulary: a poll is one group query (the paper's query/slot cost unit),
// and a node-poll pair is one participant kept listening for one poll (the
// paper's listener-energy proxy).
const (
	// MetricPolls counts group polls, partitioned by response kind via a
	// kind="..." label. The per-kind counters always sum to the total
	// poll count because the kind partition is query.KindCounts.
	MetricPolls = "tcast_polls_total"
	// MetricNodesPolled counts node-poll pairs (sum of bin sizes).
	MetricNodesPolled = "tcast_nodes_polled_total"
	// MetricSessions counts completed query sessions (Finish calls).
	MetricSessions = "tcast_sessions_total"
	// MetricBinSize is the per-poll group size distribution.
	MetricBinSize = "tcast_bin_size"
	// MetricSessionPolls is the per-session poll/slot total distribution
	// (one RCD slot per group poll).
	MetricSessionPolls = "tcast_session_polls"
	// MetricSessionNodes is the per-session node-poll (energy) total
	// distribution.
	MetricSessionNodes = "tcast_session_nodes_polled"
)

// InstrumentedQuerier is middleware over query.Querier (mirroring
// trace.SpanQuerier) that records every group poll into a Registry: per-poll
// response kinds and bin sizes as they happen, and per-session
// query/slot/energy totals when Finish is called. It works on any
// substrate — fastsim channel, packet radio, or emulated mote — because it
// only sees the Querier interface.
//
// The wrapper consumes no randomness and never alters bins or responses,
// so an instrumented run is bit-identical to an uninstrumented one.
// Metric handles are resolved at construction (and by Reset when the
// registry changes); the per-poll path is pure atomic updates and safe to
// use from concurrently running sessions (each session holds its own
// InstrumentedQuerier, like trace.SpanQuerier).
type InstrumentedQuerier struct {
	q     query.Querier
	m     *Registry // the registry the handles below were resolved in
	polls [query.NumKinds]*Counter
	nodes *Counter

	binSize      *Histogram
	sessionPolls *Histogram
	sessionNodes *Histogram
	sessions     *Counter

	kinds     query.KindCounts
	sessNodes int
}

// NewInstrumentedQuerier wraps q, recording into m (which must be
// non-nil; Wrap is the nil-safe path). A nil q is allowed for out-of-band
// recording via Record — e.g. replaying a mote trace — but such a wrapper
// must not be used as a Querier.
func NewInstrumentedQuerier(q query.Querier, m *Registry) *InstrumentedQuerier {
	iq := new(InstrumentedQuerier)
	iq.Reset(q, m)
	return iq
}

// Reset re-targets iq at q recording into m (non-nil), with empty session
// tallies. The metric handles are resolved only when m is not the
// registry iq last resolved them in, so a pooled wrapper re-targeted
// session after session against one registry pays no name lookups.
func (iq *InstrumentedQuerier) Reset(q query.Querier, m *Registry) {
	iq.q = q
	iq.kinds = query.KindCounts{}
	iq.sessNodes = 0
	if iq.m == m {
		return
	}
	iq.m = m
	iq.nodes = m.Counter(MetricNodesPolled)
	iq.sessions = m.Counter(MetricSessions)
	iq.binSize = m.Histogram(MetricBinSize, BinSizeBuckets)
	iq.sessionPolls = m.Histogram(MetricSessionPolls, SessionBuckets)
	iq.sessionNodes = m.Histogram(MetricSessionNodes, SessionBuckets)
	for k := query.Kind(0); int(k) < query.NumKinds; k++ {
		iq.polls[k] = m.Counter(MetricPolls, "kind", k.String())
	}
}

// Wrap returns q instrumented against m, or q unchanged when m is nil —
// the hook the experiment harness uses so uninstrumented runs pay nothing.
func Wrap(q query.Querier, m *Registry) query.Querier {
	if m == nil {
		return q
	}
	return NewInstrumentedQuerier(q, m)
}

// Query implements query.Querier.
func (iq *InstrumentedQuerier) Query(bin []int) query.Response {
	resp := iq.q.Query(bin)
	iq.Record(resp.Kind, len(bin))
	return resp
}

// Record tallies one poll outcome observed out-of-band — a trace replayed
// from a substrate that does not expose its querier, like the emulated
// mote testbed — using the exact same instruments as Query.
func (iq *InstrumentedQuerier) Record(kind query.Kind, binSize int) {
	iq.polls[kind].Inc()
	iq.nodes.Add(int64(binSize))
	iq.binSize.Observe(float64(binSize))
	iq.kinds.Observe(kind)
	iq.sessNodes += binSize
}

// Traits implements query.Querier.
func (iq *InstrumentedQuerier) Traits() query.Traits { return iq.q.Traits() }

// Unwrap implements query.Wrapper, so the instrumented querier composes
// with other middleware (the trace span recorder) in either stacking
// order: chain-walking helpers find each layer wherever it sits.
func (iq *InstrumentedQuerier) Unwrap() query.Querier { return iq.q }

// TraceRound forwards the algorithms' round-boundary hook to the wrapped
// querier. Without this, stacking the metrics layer outside a trace span
// recorder would swallow round spans.
func (iq *InstrumentedQuerier) TraceRound(round int) {
	if rt, ok := iq.q.(interface{ TraceRound(round int) }); ok {
		rt.TraceRound(round)
	}
}

// Finish records the session's totals — polls (= RCD slots) and node-poll
// pairs (the listener-energy proxy) — into the session histograms and
// resets the session tallies so the wrapper can be reused.
func (iq *InstrumentedQuerier) Finish() {
	iq.sessions.Inc()
	iq.sessionPolls.Observe(float64(iq.kinds.Total()))
	iq.sessionNodes.Observe(float64(iq.sessNodes))
	iq.kinds = query.KindCounts{}
	iq.sessNodes = 0
}

// FinishSession ends the session on the first InstrumentedQuerier found
// in q's middleware chain and is a no-op when there is none — the
// counterpart of Wrap. Walking the chain (rather than type-asserting q
// itself) means callers may stack further middleware, such as the trace
// span recorder, outside the instrumented querier without losing their
// session totals.
func FinishSession(q query.Querier) {
	query.Walk(q, func(l query.Querier) bool {
		iq, ok := l.(*InstrumentedQuerier)
		if ok {
			iq.Finish()
		}
		return !ok
	})
}
