package trace

// Head-rate poll-span sampling. A full trace carries one leaf span per
// poll — O(polls) memory per session — which is exactly the telemetry
// term that grows without bound on large fields. Sampling records one
// poll leaf in every k, but deterministically: the keep/skip decision is
// a SplitMix64 hash (rng.Hash64) of (caller key, session name, poll
// index), not a drawn random number, so
//
//   - no RNG stream is consumed — a sampled run's algorithm decisions,
//     tables, and audit verdicts are byte-identical to an unsampled run;
//   - identical runs sample identical spans, so trace diffs stay
//     meaningful across re-runs and worker counts (the caller key is the
//     trial index, which does not depend on scheduling).
//
// Unsampled polls still advance the virtual clock and the session's
// poll/node counters: every non-leaf span width and session attribute
// remains exact; only the per-poll leaves are thinned. Each recorded
// leaf carries AttrSampleRate, and Analyze scales Polls/NodesPolled by
// that inverse rate so sampled analyses estimate the true totals.

import "tcast/internal/rng"

// AttrSampleRate is the poll-span attribute carrying the sampling rate
// k ("this leaf stands for k polls"). Absent on unsampled traces.
const AttrSampleRate = "sample_rate"

// SetSampling configures head-rate sampling: record one poll span in
// every k, keyed so that the same (key, session, poll index) always
// makes the same decision. k <= 1 records every poll — the default, and
// byte-identical to the pre-sampling trace format. The key is typically
// the trial index; callers sharing a builder across sessions get
// per-session decorrelation from the session-name hash mixed in at
// StartSession.
func (o *Observer) SetSampling(k int, key uint64) {
	if k < 0 {
		k = 0
	}
	o.sampleEvery = k
	o.sampleKey = key
}

// sampled decides whether poll's leaf span is recorded.
func (o *Observer) sampled(poll int) bool {
	if o.sampleEvery <= 1 {
		return true
	}
	return rng.Hash64(o.sessionKey^uint64(poll))%uint64(o.sampleEvery) == 0
}
