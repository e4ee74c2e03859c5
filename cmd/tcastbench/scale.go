package main

import (
	"fmt"
	"runtime"
	"testing"

	"tcast/internal/audit"
	"tcast/internal/experiment"
	"tcast/internal/obs"
	"tcast/internal/rng"
	"tcast/internal/session"
	"tcast/internal/trace"
)

// The telemetry-scale trio: one op is one fully observed 2tBins trial —
// sparse-ledger audited, span-traced at 1-in-scaleSampleRate poll
// sampling, and folded into a constant-memory sketch sink — at population
// N = 10^3, 10^5, 10^6 with the same threshold. The point of the trio is
// the B/op column: with the sketch toolkit in place the telemetry cost
// per trial is flat in N (the CI memgate holds it there), where dense
// ledgers and unsampled traces used to grow linearly.
const (
	scaleT          = 16
	scaleX          = 16
	scaleBatch      = 256
	scaleSampleRate = 32
)

// scaleWorkers bounds the trio's parallelism: each worker keeps O(N)
// substrate state (channel bitsets, shadow knowledge), so the pool is
// capped to keep the resident set small even at N=10^6.
func scaleWorkers() int {
	w := runtime.GOMAXPROCS(0)
	if w > 4 {
		w = 4
	}
	return w
}

// newScaleStates preallocates one Session per worker. Unlike the
// sync.Pool of the n=128 benchmarks, the trio indexes them by trial
// stripe: the O(N) buffers inside (channel bitsets, the auditor's shadow
// knowledge, the arena) must survive every iteration, and a pool may
// evict them under GC pressure mid-run, which would charge spurious O(N)
// reallocations to the measured loop.
func newScaleStates(workers int) []*session.Session {
	states := make([]*session.Session, workers)
	for i := range states {
		states[i] = new(session.Session)
	}
	return states
}

// scaleTrial builds the per-trial function over the preallocated states.
// RunTrials stripes trial i onto worker i mod len(states), so the state
// index below is race-free for any batch size.
func scaleTrial(n int, states []*session.Session, builder *trace.Builder, col *audit.Collector, sink *obs.SketchSink) func(i int, r *rng.Source) (float64, error) {
	spec := twoTBinsSpec(n)
	spec.Audit, spec.Trace, spec.TraceSample = col, builder, scaleSampleRate
	return func(i int, r *rng.Source) (float64, error) {
		s := states[i%len(states)]
		sp := spec
		sp.Trial = i
		if err := s.Reset(sp, r); err != nil {
			return 0, err
		}
		res, err := s.Run()
		if err != nil {
			return 0, err
		}
		v, _ := s.Verdict()
		sink.OnEvent(obs.Event{
			Kind: obs.KindSessionVerdict, Session: "2tBins", Trial: i,
			Poll: -1, Polls: v.Polls, Slots: s.Slots(),
			Correct: res.Decision == (scaleX >= scaleT), CausalPoll: -1,
		})
		return float64(res.Queries), nil
	}
}

// runScaleTrials executes total telemetered trials at population n through
// the worker pool, batching the trace builder and the audit rows like the
// sweep driver so memory stays bounded at any total. Shared by the
// benchmark bodies and the flat-in-N regression test.
func runScaleTrials(n, total int, states []*session.Session, sink *obs.SketchSink) error {
	col := &audit.Collector{}
	for done, seed := 0, uint64(1); done < total; seed++ {
		m := total - done
		if m > scaleBatch {
			m = scaleBatch
		}
		builder := trace.NewBuilder()
		if _, err := experiment.RunTrials(m, len(states), rng.New(seed), scaleTrial(n, states, builder, col, sink)); err != nil {
			return err
		}
		builder.Graft()
		col.Flush()
		done += m
	}
	return nil
}

// scaleBench is one entry of the trio.
func scaleBench(name string, n int) bench {
	return bench{
		name:     name,
		short:    true,
		perTrial: true,
		fn: func(b *testing.B) {
			states := newScaleStates(scaleWorkers())
			sink := obs.NewSketchSink(nil)
			// Prewarm a few trials per worker so every O(N) buffer (channel
			// bitsets, auditor slots, arena) is sized before the timed loop;
			// what remains per op is the flat telemetry cost.
			if err := runScaleTrials(n, 4*len(states), states, sink); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			if err := runScaleTrials(n, b.N, states, sink); err != nil {
				b.Fatal(err)
			}
		},
		// Cost-model work of one trial: a single unsampled session.
		traced: func() (int64, int64, error) { return tracedTrial(twoTBinsSpec(n)) },
	}
}

// scaleBenches returns the trio in sweep order.
func scaleBenches() []bench {
	return []bench{
		scaleBench("query-2tbins-scale-1e3", 1_000),
		scaleBench("query-2tbins-scale-1e5", 100_000),
		scaleBench("query-2tbins-scale-1e6", 1_000_000),
	}
}

// measureScaleBytes is the test hook behind the flat-in-N acceptance
// check: allocated bytes per telemetered trial at population n, measured
// after a short warmup has sized every worker's buffers.
func measureScaleBytes(n, iters int) (float64, error) {
	states := newScaleStates(2)
	sink := obs.NewSketchSink(nil)
	if err := runScaleTrials(n, 4*len(states), states, sink); err != nil {
		return 0, fmt.Errorf("warmup: %w", err)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := runScaleTrials(n, iters, states, sink); err != nil {
		return 0, err
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(iters), nil
}
