package metrics

import (
	"math/bits"

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

// Metric names recorded by Observer, in the paper's cost-model
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

// Observer is the metrics layer's query.Observer. Per poll it only
// tallies into fields it owns — the response kind, the bin-size bucket
// and the node-poll sum — so concurrently running sessions (each holds
// its own Observer) share nothing while they poll. The per-poll series
// are published to the Registry when the session ends: Finish adds them
// with the session's query/slot/energy totals, and Flush adds them alone
// for a session that ended without deciding.
type Observer struct {
	m     *Registry // the registry the handles below were resolved in
	polls [query.NumKinds]*Counter
	nodes *Counter

	binSize      *Histogram
	sessionPolls *Histogram
	sessionNodes *Histogram
	sessions     *Counter

	// The tallies since the last flush.
	kinds  [query.NumKinds]int64
	bins   [binBuckets]uint64
	binSum int64
}

// binBuckets is the bucket count of BinSizeBuckets' histogram: one per
// power-of-two bound 1 .. 1024 and the overflow bucket.
const binBuckets = 12

// binBucket is the bucket of BinSizeBuckets that a bin of size n falls
// in: the first bound >= n, as Histogram.Observe picks it.
func binBucket(n int) int {
	if n <= 1 {
		return 0
	}
	return min(bits.Len(uint(n-1)), binBuckets-1)
}

// Reset points o at m (non-nil), first publishing any tallies left from
// a session that was not finished into the registry they were made for.
// The metric handles are resolved only when m is not the registry o last
// resolved them in, so a pooled observer pays no name lookups session
// after session.
func (o *Observer) Reset(m *Registry) {
	o.Flush()
	if o.m == m {
		return
	}
	o.m = m
	o.nodes = m.Counter(MetricNodesPolled)
	o.sessions = m.Counter(MetricSessions)
	o.binSize = m.Histogram(MetricBinSize, BinSizeBuckets)
	o.sessionPolls = m.Histogram(MetricSessionPolls, SessionBuckets)
	o.sessionNodes = m.Histogram(MetricSessionNodes, SessionBuckets)
	for k := query.Kind(0); int(k) < query.NumKinds; k++ {
		o.polls[k] = m.Counter(MetricPolls, "kind", k.String())
	}
}

// Wrap returns q under a Tap recording into m, or q unchanged when m is
// nil, so uninstrumented hand-built stacks pay nothing.
func Wrap(q query.Querier, m *Registry) query.Querier {
	if m == nil {
		return q
	}
	o := new(Observer)
	o.Reset(m)
	return query.NewTap(q, o)
}

// OnPoll implements query.Observer.
func (o *Observer) OnPoll(_ int, bin []int, resp query.Response) {
	o.kinds[resp.Kind]++
	o.bins[binBucket(len(bin))]++
	o.binSum += int64(len(bin))
}

// OnRound implements query.Observer; rounds are not metered.
func (o *Observer) OnRound(int) {}

// Flush publishes the polls tallied since the last flush — the per-kind
// poll counters, the node-poll counter and the bin-size histogram — and
// zeroes the tallies.
func (o *Observer) Flush() {
	var polls uint64
	for k, c := range o.kinds {
		if c != 0 {
			o.polls[k].Add(c)
			polls += uint64(c)
		}
	}
	if polls == 0 {
		return
	}
	o.nodes.Add(o.binSum)
	o.binSize.add(o.bins[:], polls, float64(o.binSum))
	o.kinds, o.bins, o.binSum = [query.NumKinds]int64{}, [binBuckets]uint64{}, 0
}

// Finish flushes o and records one session's totals — polls (= RCD
// slots) and node-poll pairs (the listener-energy proxy) — into the
// session histograms.
func (o *Observer) Finish(polls, nodes int) {
	o.Flush()
	o.sessions.Inc()
	o.sessionPolls.Observe(float64(polls))
	o.sessionNodes.Observe(float64(nodes))
}

// FinishSession finishes the first metrics Observer on a Tap in q's
// chain with that Tap's totals, and is a no-op when there is none — the
// counterpart of Wrap, wherever further layers stacked it.
func FinishSession(q query.Querier) {
	query.Layers(q, func(l any, t *query.Tap) bool {
		mo, ok := l.(*Observer)
		if ok {
			mo.Finish(t.Polls(), t.Nodes())
		}
		return !ok
	})
}
