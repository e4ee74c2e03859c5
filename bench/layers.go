package main

import (
	"fmt"
	"strconv"
	"time"

	"tcast/internal/audit"
	"tcast/internal/core"
	"tcast/internal/fastsim"
	"tcast/internal/faults"
	"tcast/internal/metrics"
	"tcast/internal/obs"
	"tcast/internal/query"
	"tcast/internal/rng"
	"tcast/internal/trace"
)

// recorder keeps the spans the shims record for one session at a time.
// At the end of each session it folds the spans' self times into per-layer
// totals, and keeps the spans of the first keep sessions for the JSONL
// dump. Not safe for concurrent use: a recorder serves one serial trial
// loop.
type recorder struct {
	epoch time.Time
	stack []int
	spans []span
	trace int
	keep  int
	kept  []span
	self  map[string]int64
}

func newRecorder(keep int) *recorder {
	return &recorder{epoch: time.Now(), keep: keep, self: map[string]int64{}}
}

func (r *recorder) begin(layer string) int {
	id := len(r.spans)
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, span{Trace: r.trace, ID: id, Parent: parent, Layer: layer, Start: int64(time.Since(r.epoch))})
	r.stack = append(r.stack, id)
	return id
}

func (r *recorder) end(id int) {
	r.spans[id].End = int64(time.Since(r.epoch))
	r.stack = r.stack[:len(r.stack)-1]
}

// finishSession folds the finished session's spans into the totals.
func (r *recorder) finishSession() {
	for layer, ns := range selfTimes(r.spans) {
		r.self[layer] += ns
	}
	if r.trace < r.keep {
		r.kept = append(r.kept, r.spans...)
	}
	r.spans = r.spans[:0]
	r.trace++
}

// shim is the benchmark's timing layer between two program layers: a
// query.Querier that records a span around every call into the layer
// below it, named after that layer. It forwards Traits and the round hook
// and implements query.Wrapper, so ground-truth discovery, slot-meter
// walks and FinishSession see through it.
type shim struct {
	q     query.Querier
	layer string
	rec   *recorder
}

func (s *shim) Query(bin []int) query.Response {
	id := s.rec.begin(s.layer)
	resp := s.q.Query(bin)
	s.rec.end(id)
	return resp
}

func (s *shim) Traits() query.Traits { return s.q.Traits() }

func (s *shim) Unwrap() query.Querier { return s.q }

// TraceRound times the layer's share of the algorithms' round hook.
func (s *shim) TraceRound(round int) {
	rt, ok := s.q.(interface{ TraceRound(round int) })
	if !ok {
		return
	}
	id := s.rec.begin(s.layer)
	rt.TraceRound(round)
	s.rec.end(id)
}

// Layer names, in tcastCost's stack order from the substrate up; "core" is
// the algorithm, timed as the session's root span.
const (
	layerFastsim = "fastsim"
	layerFaults  = "faults"
	layerRetry   = "retry"
	layerMetrics = "metrics"
	layerAudit   = "audit"
	layerTrace   = "trace"
	layerObs     = "obs"
	layerCore    = "core"
)

// stack is one configuration of the sweep trial's layers, a replica of
// experiment.tcastCost built from the layers' exported constructors. A nil
// field leaves its layer out; rec, when set, interposes a shim above every
// layer.
type stack struct {
	faults *faults.Config
	retry  query.RetryPolicy
	reg    *metrics.Registry
	col    *audit.Collector
	tb     *trace.Builder
	sample int
	bus    *obs.Bus
	rec    *recorder

	// Serial-run tallies (rec set or workers = 1).
	finishNS int64
	finishes int
	retries  int
}

func (k *stack) wrap(q query.Querier, layer string) query.Querier {
	if k.rec == nil {
		return q
	}
	return &shim{q: q, layer: layer, rec: k.rec}
}

// trialState is a replica trial's pooled scratch, as tcastCost pools it.
type trialState struct {
	ch        fastsim.Channel
	arena     core.Arena
	chr, algr rng.Source
	aud       *audit.Auditor
}

// outcome is what a trial decided and what it cost, compared across
// configurations and with or without shims.
type outcome struct {
	decision bool
	queries  int
	slots    int64
}

// trial runs trial i of one fig1 2tBins point (n, t, x) through the stack,
// with tcastCost's derivation (channel Split(1), faults Split(9),
// algorithm Split(2)) and its teardown order.
func (k *stack) trial(st *trialState, i int, r *rng.Source, n, t, x int) (outcome, error) {
	r.SplitInto(1, &st.chr)
	st.ch.ResetRandom(n, x, fastsim.DefaultConfig(), &st.chr)
	q := k.wrap(&st.ch, layerFastsim)
	if k.faults != nil {
		q = k.wrap(faults.New(q, *k.faults, n, r.Split(9)), layerFaults)
	}
	if k.retry.Active() {
		q = k.wrap(query.WithRetry(q, k.retry), layerRetry)
	}
	if k.reg != nil {
		q = k.wrap(metrics.Wrap(q, k.reg), layerMetrics)
	}
	var label string
	if k.col != nil || k.bus != nil {
		label = fmt.Sprintf("2tBins/n=%d/t=%d/x=%d/trial=%d", n, t, x, i)
	}
	var aud *audit.Auditor
	if k.col != nil {
		acfg := audit.Config{N: n, T: t, Metrics: k.reg}
		var err error
		if st.aud == nil {
			st.aud, err = audit.New(q, acfg)
		} else {
			err = st.aud.Reset(q, acfg)
		}
		if err != nil {
			return outcome{}, err
		}
		aud = st.aud
		q = k.wrap(aud, layerAudit)
	}
	var fb *trace.Builder
	var sq *trace.SpanQuerier
	if k.tb != nil {
		fb = k.tb.Fork(i)
		fb.Begin(trace.KindTrial, "trial "+strconv.Itoa(i))
		sq = trace.NewSpanQuerier(q, fb)
		sq.SetSampling(k.sample, uint64(i))
		sq.StartSession("2tBins", trace.IntAttr("n", n), trace.IntAttr("t", t), trace.IntAttr("x", x))
		q = k.wrap(sq, layerTrace)
	}
	if k.bus != nil {
		q = k.wrap(obs.NewPublisher(q, k.bus, label, i), layerObs)
		obs.PublishSessionStart(k.bus, label, i)
	}
	r.SplitInto(2, &st.algr)
	var root int
	if k.rec != nil {
		root = k.rec.begin(layerCore)
	}
	res, err := core.RunIn(&st.arena, core.TwoTBins{}, q, n, t, &st.algr)
	if k.rec != nil {
		k.rec.end(root)
	}
	if aud != nil {
		if err == nil {
			start := time.Now()
			v := aud.Finish(res.Decision)
			k.finishNS += int64(time.Since(start))
			k.finishes++
			k.col.AddAt(i, label, v)
			if k.bus != nil {
				obs.PublishChainEvents(k.bus, label, i, q)
				obs.PublishVerdict(k.bus, label, i, v, obs.ChainSlots(q, v.Polls), q)
			}
		} else {
			k.col.Void(label)
		}
	}
	if sq != nil {
		if err == nil {
			sq.EndSession(trace.BoolAttr("decision", res.Decision),
				trace.IntAttr("queries", res.Queries), trace.IntAttr("rounds", res.Rounds))
		} else {
			sq.EndSession(trace.StringAttr("error", err.Error()))
		}
		fb.End()
	}
	if k.rec != nil {
		k.rec.finishSession()
	}
	if err != nil {
		return outcome{}, err
	}
	metrics.FinishSession(q)
	if k.bus != nil && aud == nil {
		obs.PublishChainEvents(k.bus, label, i, q)
		obs.PublishDecision(k.bus, label, i, res.Decision, x >= t, res.Queries, obs.ChainSlots(q, res.Queries))
	}
	if rq := retryLayer(q); rq != nil {
		k.retries += rq.Retries()
	}
	return outcome{decision: res.Decision, queries: res.Queries, slots: obs.ChainSlots(q, res.Queries)}, nil
}

// retryLayer finds the retry middleware in q's chain.
func retryLayer(q query.Querier) *query.Retry {
	for q != nil {
		if r, ok := q.(*query.Retry); ok {
			return r
		}
		w, ok := q.(query.Wrapper)
		if !ok {
			return nil
		}
		q = w.Unwrap()
	}
	return nil
}
