// Package experiment is the harness that regenerates every table and
// figure of the paper's evaluation. Each figure is a named experiment that
// sweeps a parameter, runs many independent trials per point (in parallel,
// deterministically), and returns a stats.Table whose series correspond to
// the curves of the original figure.
package experiment

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tcast/internal/audit"
	"tcast/internal/core"
	"tcast/internal/fastsim"
	"tcast/internal/faults"
	"tcast/internal/metrics"
	"tcast/internal/obs"
	"tcast/internal/query"
	"tcast/internal/rng"
	"tcast/internal/session"
	"tcast/internal/stats"
	"tcast/internal/trace"
)

// Options tunes an experiment run.
type Options struct {
	// Runs is the number of trials per point. The paper uses 1000 for
	// simulations and 100 per mote configuration; zero selects those
	// defaults.
	Runs int
	// Seed is the root seed; every (point, trial) derives its own
	// stream, so results are independent of scheduling.
	Seed uint64
	// Workers bounds trial parallelism; zero means GOMAXPROCS.
	Workers int
	// Metrics, when non-nil, receives the run's observability data:
	// per-poll instruments from the instrumented querier and per-series
	// trial throughput and wall-clock timings from the sweep driver.
	// Instrumentation never touches the trial RNG streams, so results
	// are bit-identical with and without it.
	Metrics *metrics.Registry
	// Trace, when non-nil, receives a structured span recording of the
	// run: series → point → trial → session → round → poll, with
	// virtual-time intervals from the cost model. Trials run at full
	// worker parallelism: each point records into its own fork of the
	// builder (trace.Builder.Fork), each trial into a fork of its point's,
	// and once the series' batch drains the sweep grafts the trials into
	// their points in trial-index order and the points in x order, so the
	// encoded trace depends only on the seed, never the worker count.
	// Like Metrics, tracing consumes no randomness, so the computed
	// tables are bit-identical with and without it.
	Trace *trace.Builder
	// TraceSample, when > 1, records only 1-in-k poll leaf spans per
	// session (trace.Observer.SetSampling, keyed by the trial index so
	// identical runs sample identical spans for any worker count). Round
	// and session spans, the virtual clock, and the session poll/node
	// counters stay exact; sampled traces Analyze with counts scaled by
	// the inverse rate. Values <= 1 record everything and are
	// byte-identical to the pre-sampling format.
	TraceSample int
	// Audit, when non-nil, grades every session against the substrate's
	// ground truth: each trial's query.Tap gains an audit.Auditor and
	// its verdict (decision outcome, poll soundness classes, invariant
	// violations, causal poll for wrong decisions) is folded into the
	// collector. Trials run at full worker parallelism: verdicts are
	// inserted under their trial index (Collector.AddAt) into their
	// point's fork of the collector (Collector.Fork), and the sweep
	// flushes the series in point and trial order, so wrong-decision rows
	// are in deterministic order for any worker count. Like the other
	// two layers it consumes no randomness, so the computed tables are
	// bit-identical with and without it.
	Audit *audit.Collector
	// Faults, when non-nil, stacks the deterministic fault injector
	// (internal/faults) directly above every trial's querier substrate,
	// drawing from a dedicated per-trial stream. A non-nil config with
	// all rates zero still interposes the injector; such runs are
	// byte-identical to bare ones (the CI property test pins this).
	// With faults active the figure experiments tolerate wrong decisions
	// instead of failing the trial — degradation is the point — and the
	// abstract CSMA/Sequential baselines, which have no querier to wrap,
	// run bare. The audit layer keeps working: the injector reports
	// itself lossy, so the bound invariants stand down.
	Faults *faults.Config
	// Retry stacks the initiator retry policy (query.WithRetry) above
	// the substrate and injector in every trial; the zero policy adds no
	// wrapper. Retries and backoff waits are priced in virtual slots.
	Retry query.RetryPolicy
	// Obs, when non-nil, streams structured events onto the bus: one
	// session-start and one verdict event per trial, one poll event per
	// group poll (obs.Publisher, the last observer on the trial's
	// query.Tap, so every layer before it has already seen the poll), injected-fault and retry-exhaustion events
	// drained from the chain, and anomaly events for invariant
	// violations and wrong verdicts. Trials publish from worker
	// goroutines, so the live stream is scheduling-ordered — sinks that
	// need determinism key on the session label and trial index carried
	// by every event. Publishing consumes no randomness and the observer
	// is installed only when the bus is non-nil, so published runs stay
	// byte-identical to bare ones and the bare hot path allocation-free.
	Obs *obs.Bus
}

// faulted reports whether fault injection is configured AND can fire.
func (o Options) faulted() bool { return o.Faults != nil && o.Faults.Active() }

func (o Options) runs(def int) int {
	if o.Runs > 0 {
		return o.Runs
	}
	return def
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// RunTrials evaluates trial runs times on independent derived streams,
// fanned out over the worker pool, returning the per-trial values in
// trial-index order. Trial i always receives its own index and the stream
// root.Split(i), so the output is bit-identical regardless of worker
// count; the index also keys each trial's observation context (trace
// forks, audit rows), which is how traced and audited batches stay
// deterministic at full parallelism. Trials are dealt to workers by
// static stride; sweep, which batches a whole series, uses runBatch.
//
// On failure RunTrials returns (nil, err): any partially computed values
// are discarded, never exposed. The first recorded failure cancels the
// remaining work — every worker stops before starting a trial whose index
// exceeds the lowest failing index seen so far — and the error returned is
// deterministically the one from the lowest-indexed failing trial. (All
// trials below the lowest failure still run, so the winner cannot depend
// on goroutine scheduling.)
func RunTrials(runs, workers int, root *rng.Source, trial func(i int, r *rng.Source) (float64, error)) ([]float64, error) {
	if runs <= 0 {
		return nil, fmt.Errorf("experiment: runs must be positive, got %d", runs)
	}
	if workers <= 0 {
		workers = 1
	}
	if workers > runs {
		workers = runs
	}
	values := make([]float64, runs)
	var (
		failIdx atomic.Int64 // lowest failing trial index so far
		mu      sync.Mutex   // guards failErr together with failIdx writes
		failErr error
	)
	failIdx.Store(int64(runs))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker reuses one derived stream: SplitInto reseeds it
			// per trial with the same state Split(i) would allocate, and
			// Split never advances the parent, so concurrent derivation
			// from the shared root is safe and the values stay
			// bit-identical to the allocating form.
			var src rng.Source
			for i := w; i < runs; i += workers {
				// A worker's indices only grow, so once one passes the
				// lowest failure it can stop: no later trial of this
				// worker can produce a lower-indexed error.
				if int64(i) > failIdx.Load() {
					return
				}
				root.SplitInto(uint64(i), &src)
				v, err := trial(i, &src)
				if err != nil {
					mu.Lock()
					if int64(i) < failIdx.Load() {
						failIdx.Store(int64(i))
						failErr = err
					}
					mu.Unlock()
					return
				}
				values[i] = v
			}
		}(w)
	}
	wg.Wait()
	if failErr != nil {
		return nil, failErr
	}
	return values, nil
}

// pointCost is the per-trial measurement for one sweep point; i is the
// trial index, which keys the trial's observation context.
type pointCost func(i int, r *rng.Source) (float64, error)

// sweep builds one series by evaluating cost at every x. All (point,
// trial) pairs of the series run as one batch on o.workers() goroutines,
// the caller's among them: workers claim pairs in point-major order from
// one counter, so no point waits for the slowest trial of the one before.
// Trial i of point x draws from root.Split(x).Split(i) and each point's
// values fold in trial order, so the series is bit-identical for any
// worker count. cost receives the point's Options: with o.Trace or
// o.Audit set they carry the point's own fork (trace.Builder.Fork,
// audit.Collector.Fork), under which the trials key their contexts by
// trial index; after the batch the points are grafted and flushed in x
// order, each trace point under its own span. When o.Metrics is set the
// series reports its wall-clock time and trial throughput — observability
// only, never fed back into the table.
//
// The error returned is the one of the lowest failing (point, trial)
// pair; the failing point keeps an empty span, and neither it nor any
// later point contributes trial spans or audit rows.
func sweep(name string, xs []int, o Options, root *rng.Source, cost func(x int, o Options) pointCost) (*stats.Series, error) {
	runs, b, c := o.runs(defaultRuns), o.Trace, o.Audit
	if b != nil {
		b.Begin(trace.KindSeries, name)
		defer b.End()
	}
	costs := make([]pointCost, len(xs))
	roots := make([]*rng.Source, len(xs))
	points := make([]Options, len(xs))
	for p, x := range xs {
		po := o
		if b != nil {
			po.Trace = b.Fork(p)
		}
		if c != nil {
			po.Audit = c.Fork(p)
		}
		points[p], costs[p], roots[p] = po, cost(x, po), root.Split(uint64(x))
	}
	start := time.Now()
	values, fail, err := runBatch(runs, o.workers(), roots, costs)
	if b != nil {
		for p, x := range xs {
			// The point span opens here rather than before the batch, so
			// a point past the failure leaves an empty fork behind.
			pb := points[p].Trace
			if p > fail {
				pb.DropForks()
				continue
			}
			sp := pb.Begin(trace.KindPoint, "x="+strconv.Itoa(x))
			sp.SetAttr(trace.IntAttr("x", x), trace.IntAttr("runs", runs))
			if p < fail {
				pb.Graft()
			} else {
				pb.DropForks()
			}
			pb.End()
		}
		b.Graft()
	}
	if c != nil {
		for p := fail; p < len(xs); p++ {
			points[p].Audit.Discard()
		}
		c.Flush()
	}
	if err != nil {
		return nil, fmt.Errorf("experiment: series %s at x=%d: %w", name, xs[fail], err)
	}
	if m := o.Metrics; m != nil {
		elapsed, trials := time.Since(start).Seconds(), len(values)
		m.Counter("experiment_points_total").Add(int64(len(xs)))
		m.Counter("experiment_trials_total").Add(int64(trials))
		m.Histogram("experiment_series_seconds", metrics.TimeBuckets).Observe(elapsed)
		if elapsed > 0 {
			m.Gauge("experiment_trials_per_second").Set(float64(trials) / elapsed)
		}
	}
	s := &stats.Series{Name: name}
	for p, x := range xs {
		var acc stats.Running
		for _, v := range values[p*runs : (p+1)*runs] {
			acc.Observe(v)
		}
		s.Append(stats.Point{X: float64(x), Y: acc.Mean(), Err: acc.CI95(), N: acc.N()})
	}
	return s, nil
}

// runBatch evaluates runs trials at each of len(costs) points as one
// batch: pair k is trial k%runs of point k/runs, drawing from
// roots[point].Split(trial), and its value lands at values[k]. workers-1
// goroutines and the caller claim pairs in ascending k from one counter.
// On failure runBatch returns (nil, point, err) for the lowest failing
// pair: no worker claims a pair past the lowest failure seen so far, and
// every pair below it still runs, so the winner cannot depend on
// scheduling. Without failure the point is len(costs).
func runBatch(runs, workers int, roots []*rng.Source, costs []pointCost) ([]float64, int, error) {
	total := runs * len(costs)
	workers = max(1, min(workers, total))
	values := make([]float64, total)
	var (
		next    atomic.Int64 // next unclaimed pair
		failK   atomic.Int64 // lowest failing pair so far
		mu      sync.Mutex   // guards failErr together with failK writes
		failErr error
	)
	failK.Store(int64(total))
	work := func() {
		var src rng.Source // reseeded per pair, as in RunTrials
		for {
			k := next.Add(1) - 1
			if k >= int64(total) || k > failK.Load() {
				return
			}
			p, i := int(k)/runs, int(k)%runs
			roots[p].SplitInto(uint64(i), &src)
			v, err := costs[p](i, &src)
			if err != nil {
				mu.Lock()
				if k < failK.Load() {
					failK.Store(k)
					failErr = err
				}
				mu.Unlock()
				return
			}
			values[k] = v
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if failErr != nil {
		return nil, int(failK.Load()) / runs, failErr
	}
	return values, len(costs), nil
}

// sessions pools the trials' sessions: a reused session keeps its
// channel, arena, streams, injector and auditor, so the bare trial path
// (no layers configured) allocates nothing. Reset draws exactly what a
// fresh session would, so pooled trials are bit-identical.
var sessions = sync.Pool{New: func() any { return new(session.Session) }}

// tcastCost measures one tcast session's query count on a fresh channel
// with exactly x positives, under the layers o configures. No layer
// consumes randomness, so the measured values are identical in every
// combination.
func tcastCost(alg core.Algorithm, n, t, x int, cfg fastsim.Config, o Options) pointCost {
	return func(trial int, r *rng.Source) (float64, error) {
		s := sessions.Get().(*session.Session)
		defer sessions.Put(s)
		sp := session.Spec{
			N: n, T: t, X: x, Collision: cfg, Algorithm: alg, Trial: trial,
			Faults: o.Faults, Retry: o.Retry, Metrics: o.Metrics, Audit: o.Audit,
			Trace: o.Trace, TraceSample: o.TraceSample, Obs: o.Obs,
		}
		if o.Audit != nil || o.Obs != nil {
			sp.Label = fmt.Sprintf("%s/n=%d/t=%d/x=%d/trial=%d", alg.Name(), n, t, x, trial)
		}
		if err := s.Reset(sp, r); err != nil {
			return 0, err
		}
		res, err := s.Run()
		if err != nil {
			return 0, err
		}
		s.Publish()
		if res.Decision != (x >= t) && !o.faulted() {
			// A wrong decision on a well-behaved substrate is a harness
			// bug; under active fault injection it is the expected
			// degradation the audit layer attributes.
			return 0, fmt.Errorf("wrong decision for n=%d t=%d x=%d", n, t, x)
		}
		return float64(res.Queries), nil
	}
}

// Experiment is one reproducible figure or table.
type Experiment struct {
	// ID is the figure identifier from DESIGN.md (e.g. "fig1").
	ID string
	// Title describes the experiment.
	Title string
	// Run produces the figure's data.
	Run func(o Options) (*stats.Table, error)
}

// registry holds every experiment keyed by ID.
var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("experiment: duplicate id " + e.ID)
	}
	registry[e.ID] = e
}

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("experiment: unknown id %q (have %v)", id, IDs())
	}
	return e, nil
}

// IDs lists all registered experiments in sorted order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// All returns every experiment sorted by ID.
func All() []Experiment {
	var out []Experiment
	for _, id := range IDs() {
		out = append(out, registry[id])
	}
	return out
}
