package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"tcast/internal/audit"
	"tcast/internal/core"
	"tcast/internal/experiment"
	"tcast/internal/fastsim"
	"tcast/internal/faults"
	"tcast/internal/metrics"
	"tcast/internal/obs"
	"tcast/internal/rng"
	"tcast/internal/serve"
	"tcast/internal/stats"
	"tcast/internal/trace"
)

// All timing of the traced run happens in this file's calls into each
// layer's exported API; nothing inside the program is instrumented.
// README.md's table names the end-to-end metric and workload each
// per-layer metric should move.

// keptSessions is how many sessions per replica configuration keep their
// spans for the JSONL dump.
const keptSessions = 100

// Sessions per field size of the scale probe, after one warm-up session.
var (
	scaleProbeSizes      = []scaleSize{{1 << 14, 16}, {1_000_000, 2}}
	shortScaleProbeSizes = []scaleSize{{1 << 14, 2}, {1_000_000, 1}}
)

// probeTime bounds each serving probe's closed loop.
func probeTime(full bool) time.Duration {
	if full {
		return 2 * time.Second
	}
	return 300 * time.Millisecond
}

// check records one validity check of the traced run; a failed check
// makes the run incorrect.
func (c *child) check(ok bool, format string, args ...any) {
	c.rep.Attempted++
	if !ok {
		c.rep.Failed++
		c.progress("CHECK FAILED: "+format, args...)
	}
}

// runTraced is the traced run of c's workload. Its output must hold every
// per-layer metric, so it runs every probe. The probes of the sweep layers
// take well under a second and always run at full size. The scale, pool
// and HTTP probes run at full size only on the workload whose path they
// time (scale, serve-contended, serve-http). Elsewhere they run at the
// -short size, enough to print their metrics but not to read them.
func runTraced(c *child) error {
	full := func(workload string) bool { return !c.opts.short && c.opts.workload == workload }
	runs := sweepTrialRuns(c.opts.short)
	fig1, err := probeExperiments(c, runs)
	if err != nil {
		return err
	}
	kept, err := probeSweepLayers(c, fig1, runs)
	if err != nil {
		return err
	}
	if err := probeAllocs(c); err != nil {
		return err
	}
	if err := probeScale(c, full("scale")); err != nil {
		return err
	}
	if err := probePool(c, full("serve-contended")); err != nil {
		return err
	}
	if err := probeHTTP(c, full("serve-http")); err != nil {
		return err
	}
	c.rep.note("scale.*, serve.*, http.*, tcastd.* and loadgen.* are full-size only in the traced runs of scale, serve-contended and serve-http")
	return writeSpans(c, kept)
}

// probeExperiments times one Run of every figs experiment at figs' trial
// count and returns the fig1 table the replica is validated against.
func probeExperiments(c *child, runs int) (*stats.Table, error) {
	exps, err := figsSweep.experiments()
	if err != nil {
		return nil, err
	}
	var fig1 *stats.Table
	for _, e := range exps {
		start := time.Now()
		tab, err := e.Run(experiment.Options{Runs: runs, Seed: c.opts.seed})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		c.rep.set("experiment."+e.ID+".wall_s", "s", time.Since(start).Seconds())
		if e.ID == "fig1" {
			fig1 = tab
		}
	}
	if fig1 == nil || fig1.Get("2tBins") == nil {
		return nil, fmt.Errorf("fig1 has no 2tBins series")
	}
	return fig1, nil
}

// replicaConfig is one sweep workload's layer configuration.
type replicaConfig struct {
	name  string
	build func() (*stack, error)
	// layers are the layers this configuration reports self time for.
	layers []string
}

func replicaConfigs() []replicaConfig {
	return []replicaConfig{
		{"figs", func() (*stack, error) { return &stack{}, nil }, []string{layerCore, layerFastsim}},
		{"figs-faulted", func() (*stack, error) {
			k := &stack{col: &audit.Collector{}}
			return k, k.addFaults()
		}, []string{layerFaults, layerRetry}},
		{"figs-observed", func() (*stack, error) {
			k := &stack{reg: metrics.New(), col: &audit.Collector{}, tb: trace.NewBuilder(), sample: 32}
			return k, k.addObs()
		}, []string{layerMetrics, layerAudit, layerTrace, layerObs}},
	}
}

// addFaults stacks figs-faulted's injector and retry policy.
func (k *stack) addFaults() error {
	fcfg, err := faults.ParseSpec(faultSpec)
	if err != nil {
		return err
	}
	k.faults, k.retry = &fcfg, faultRetry
	return nil
}

// addObs builds figs-observed's obs plane over the stack's registry.
func (k *stack) addObs() error {
	plane, err := obs.Config{Sketch: true, SLOSpec: sloSpec}.Build(io.Discard, k.reg, true)
	if err != nil {
		return err
	}
	k.bus = plane.Bus()
	return nil
}

// replicaRun is one pass of a configuration over the fig1 2tBins points.
type replicaRun struct {
	k         *stack
	outcomes  [][]outcome // per point, per trial
	wall      time.Duration
	polls     int
	trials    int
	graft     time.Duration
	encode    time.Duration
	events    int64
	traceSum  string
	traceSize int64
	audit     string
}

// replicate runs every fig1 point through the configuration, serially,
// with the derivation of fig1's 2tBins series (series 0, point x, trial
// i), so the bare replica reproduces the table's values exactly.
func replicate(cfg replicaConfig, xs []int, runs int, seed uint64, rec *recorder) (replicaRun, error) {
	k, err := cfg.build()
	if err != nil {
		return replicaRun{}, err
	}
	k.rec = rec
	var events int64 // serial run: the sink is called on this goroutine
	if k.bus != nil {
		k.bus.Subscribe(obs.SinkFunc(func(obs.Event) { events++ }))
	}
	run := replicaRun{k: k}
	series := rng.New(seed).Split(0)
	st := new(trialState)
	start := time.Now()
	for _, x := range xs {
		point := make([]outcome, runs)
		_, err := experiment.RunTrials(runs, 1, series.Split(uint64(x)), func(i int, r *rng.Source) (float64, error) {
			o, err := k.trial(st, i, r, 128, 16, x)
			point[i] = o
			return float64(o.queries), err
		})
		if err != nil {
			return run, fmt.Errorf("%s x=%d: %w", cfg.name, x, err)
		}
		if k.tb != nil {
			g := time.Now()
			k.tb.Graft()
			run.graft += time.Since(g)
		}
		if k.col != nil {
			k.col.Flush()
		}
		for _, o := range point {
			run.polls += o.queries
		}
		run.trials += runs
		run.outcomes = append(run.outcomes, point)
	}
	if k.tb != nil {
		e := time.Now()
		run.traceSum, run.traceSize, err = encodeTrace(k.tb.Trace())
		if err != nil {
			return run, err
		}
		run.encode = time.Since(e)
	}
	run.wall = time.Since(start)
	run.events = events
	if k.col != nil {
		data, err := json.Marshal(k.col.Stats())
		if err != nil {
			return run, err
		}
		run.audit = sha(string(data))
	}
	return run, nil
}

// probeSweepLayers runs each sweep configuration's replica with and without
// shims, checks that the shims changed nothing, validates the bare replica
// against the fig1 table, and reports per-layer self time.
func probeSweepLayers(c *child, fig1 *stats.Table, runs int) ([]keptSpan, error) {
	series := fig1.Get("2tBins")
	xs := make([]int, len(series.Points))
	for i, p := range series.Points {
		xs[i] = int(p.X)
	}
	var kept []keptSpan
	var bare replicaRun
	for _, cfg := range replicaConfigs() {
		plain, err := replicate(cfg, xs, runs, c.opts.seed, nil)
		if err != nil {
			return nil, err
		}
		rec := newRecorder(keptSessions)
		shimmed, err := replicate(cfg, xs, runs, c.opts.seed, rec)
		if err != nil {
			return nil, err
		}
		for _, s := range rec.kept {
			kept = append(kept, keptSpan{Config: cfg.name, span: s})
		}
		changed := 0
		for p := range plain.outcomes {
			for i := range plain.outcomes[p] {
				if plain.outcomes[p][i] != shimmed.outcomes[p][i] {
					changed++
				}
			}
		}
		c.check(changed == 0, "%s: %d trials changed decision, query count or slots under shims", cfg.name, changed)
		c.check(plain.traceSum == shimmed.traceSum && plain.audit == shimmed.audit && plain.events == shimmed.events,
			"%s: trace, audit statistics or event count changed under shims", cfg.name)
		c.progress("tracing overhead %s: replica %.3fs with shims vs %.3fs without (%.2fx)",
			cfg.name, shimmed.wall.Seconds(), plain.wall.Seconds(), shimmed.wall.Seconds()/plain.wall.Seconds())
		for _, layer := range cfg.layers {
			c.rep.set(layer+".self_ns_per_poll", "ns", float64(rec.self[layer])/float64(shimmed.polls))
		}
		switch cfg.name {
		case "figs":
			bare = plain
			for p, pt := range series.Points {
				var acc stats.Running
				for _, o := range plain.outcomes[p] {
					acc.Observe(float64(o.queries))
				}
				c.check(math.Abs(acc.Mean()-pt.Y) <= pt.Err, "replica mean %.4f at x=%d outside fig1's %.4f ± %.4f",
					acc.Mean(), xs[p], pt.Y, pt.Err)
			}
		case "figs-faulted":
			c.rep.set("retry.retries_per_poll", "count", float64(plain.k.retries)/float64(plain.polls))
		case "figs-observed":
			changed := 0
			for p := range plain.outcomes {
				for i, o := range plain.outcomes[p] {
					if o.decision != bare.outcomes[p][i].decision || o.queries != bare.outcomes[p][i].queries {
						changed++
					}
				}
			}
			c.check(changed == 0, "observed replica differs from the bare one in %d trials", changed)
			c.rep.set("audit.finish_ns_per_trial", "ns", float64(plain.k.finishNS)/float64(plain.k.finishes))
			c.rep.set("obs.events_per_trial", "count", float64(plain.events)/float64(plain.trials))
			c.rep.set("trace.graft_ms", "ms", float64(plain.graft)/1e6)
			c.rep.set("trace.encode_ms", "ms", float64(plain.encode)/1e6)
			c.rep.set("trace.bytes", "bytes", float64(plain.traceSize))
		}
	}
	eff, err := parallelEfficiency(xs, runs, c.opts.seed)
	if err != nil {
		return nil, err
	}
	c.rep.set("experiment.parallel_efficiency", "ratio", eff)
	return kept, nil
}

// parallelEfficiency is the bare replica's trial rate through
// experiment.RunTrials at GOMAXPROCS workers over GOMAXPROCS times its
// rate at one worker.
func parallelEfficiency(xs []int, runs int, seed uint64) (float64, error) {
	k := &stack{}
	pool := sync.Pool{New: func() any { return new(trialState) }}
	rate := func(workers int) (float64, error) {
		series := rng.New(seed).Split(0)
		trials := 0
		start := time.Now()
		for trials == 0 || time.Since(start) < 300*time.Millisecond {
			for _, x := range xs {
				_, err := experiment.RunTrials(runs, workers, series.Split(uint64(x)), func(i int, r *rng.Source) (float64, error) {
					st := pool.Get().(*trialState)
					defer pool.Put(st)
					o, err := k.trial(st, i, r, 128, 16, x)
					return float64(o.queries), err
				})
				if err != nil {
					return 0, err
				}
				trials += runs
			}
		}
		return float64(trials) / time.Since(start).Seconds(), nil
	}
	one, err := rate(1)
	if err != nil {
		return 0, err
	}
	g := runtime.GOMAXPROCS(0)
	many, err := rate(g)
	if err != nil {
		return 0, err
	}
	return many / (float64(g) * one), nil
}

// probeAllocs builds tcastCost's stack one layer at a time at fig1's
// x = t point and reports each layer's allocations per trial: those of the
// stack up to the layer minus those of the stack below it.
func probeAllocs(c *child) error {
	fcfg, err := faults.ParseSpec(faultSpec)
	if err != nil {
		return err
	}
	ladder := []struct {
		layer string
		add   func(k *stack) error
	}{
		{layerFaults, func(k *stack) error { k.faults = &fcfg; return nil }},
		{layerRetry, func(k *stack) error { k.retry = faultRetry; return nil }},
		{layerMetrics, func(k *stack) error { k.reg = metrics.New(); return nil }},
		{layerAudit, func(k *stack) error { k.col = &audit.Collector{}; return nil }},
		{layerTrace, func(k *stack) error { k.tb, k.sample = trace.NewBuilder(), 32; return nil }},
		{layerObs, func(k *stack) error { return k.addObs() }},
	}
	k := &stack{}
	prevAllocs, prevBytes := trialAllocs(k, c.opts.seed)
	for _, step := range ladder {
		if err := step.add(k); err != nil {
			return err
		}
		allocs, bytes := trialAllocs(k, c.opts.seed)
		c.rep.set(step.layer+".allocs_per_trial", "count", allocs-prevAllocs)
		c.rep.set(step.layer+".bytes_per_trial", "bytes", bytes-prevBytes)
		prevAllocs, prevBytes = allocs, bytes
	}
	return nil
}

// trialAllocs measures the allocations and bytes of one trial through k
// with testing.AllocsPerRun, the trial index advancing per call.
func trialAllocs(k *stack, seed uint64) (allocs, bytes float64) {
	const runs = 200
	point := rng.New(seed).Split(0).Split(16)
	st := new(trialState)
	var r rng.Source
	i := 0
	f := func() {
		point.SplitInto(uint64(i), &r)
		if _, err := k.trial(st, i, &r, 128, 16, 16); err != nil {
			panic(err) // lossless or faulted, a 2tBins trial always decides
		}
		i++
	}
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs = testing.AllocsPerRun(runs, f)
	runtime.ReadMemStats(&after)
	if k.tb != nil {
		k.tb.DropForks()
	}
	if k.col != nil {
		k.col.Flush()
	}
	return allocs, float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
}

// probeScale times the streamed sparse path at each field size: a shim
// between core and fastsim splits the session into the two layers' self
// time. One untimed warm-up session per size sizes every O(N) buffer, so
// the allocation count is a steady session's.
func probeScale(c *child, full bool) error {
	sizes := shortScaleProbeSizes
	if full {
		sizes = scaleProbeSizes
	}
	for _, sz := range sizes {
		st := new(scaleState)
		root := rng.New(c.opts.seed).Split(uint64(sz.n))
		warm, err := st.session(root, uint64(sz.sessions), sz.n, scaleX)
		if err != nil {
			return err
		}
		rec := newRecorder(0)
		// One span per poll plus the session root: reserve them all so the
		// shim allocates nothing while allocations are counted.
		rec.spans = make([]span, 0, sz.sessions*(2*warm.Queries+16))
		var resets, sessions []float64
		polls := 0
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < sz.sessions; i++ {
			t0 := time.Now()
			st.reset(root, uint64(i), sz.n, scaleX)
			t1 := time.Now()
			id := rec.begin(layerCore)
			res, err := st.run(&shim{q: &st.ch, layer: layerFastsim, rec: rec}, sz.n)
			rec.end(id)
			sessions = append(sessions, float64(time.Since(t1))/1e6)
			resets = append(resets, float64(t1.Sub(t0))/1e6)
			c.check(err == nil && res.Decision, "scale probe session %d at n=%d: decision %v, err %v", i, sz.n, res.Decision, err)
			polls += res.Queries
		}
		runtime.ReadMemStats(&after)
		rec.finishSession()
		n := fmt.Sprint(sz.n)
		c.rep.set("scale.session_ms."+n, "ms", median(sessions))
		c.rep.set("core.self_ns_per_poll."+n, "ns", float64(rec.self[layerCore])/float64(polls))
		c.rep.set("fastsim.self_ns_per_poll."+n, "ns", float64(rec.self[layerFastsim])/float64(polls))
		c.rep.set("fastsim.reset_ms."+n, "ms", median(resets))
		c.rep.set("scale.polls_per_session."+n, "count", float64(polls)/float64(sz.sessions))
		c.rep.set("scale.alloc_bytes_per_session."+n, "bytes", float64(after.TotalAlloc-before.TotalAlloc)/float64(sz.sessions))
	}
	return nil
}

// bareSession replays a served spec (2tBins, model 1+, as specGen draws
// every one) with no pool: core on fastsim with the session's derivation
// (rng.New(Seed).SplitInto(Trial), then Split(1) for the channel and
// Split(2) for the algorithm).
func bareSession(sp serve.Spec) (core.Result, time.Duration, error) {
	start := time.Now()
	var src rng.Source
	rng.New(sp.Seed).SplitInto(uint64(sp.Trial), &src)
	ch, _ := fastsim.RandomPositives(sp.N, sp.X, fastsim.DefaultConfig(), src.Split(1))
	res, err := core.TwoTBins{}.Run(ch, sp.N, sp.T, src.Split(2))
	return res, time.Since(start), err
}

// probePool runs the serve-contended loop briefly and splits a session's
// wall time into admission (Submit), the bare algorithm, and the rest:
// scheduler, stack construction and publishing.
func probePool(c *child, full bool) error {
	p, reg, err := newPool()
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	serve.Register(mux, p)
	stop := make(chan struct{})
	var active, queued []float64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			rr := httptest.NewRecorder()
			mux.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/fields", nil))
			var fields []serve.FieldStatus
			if json.Unmarshal(rr.Body.Bytes(), &fields) != nil {
				continue
			}
			var a, q int64
			for _, f := range fields {
				a, q = a+f.Active, q+f.Queued
			}
			active, queued = append(active, float64(a)), append(queued, float64(q))
		}
	}()
	gen := newSpecGen(c.opts.seed)
	var done []contendedResult
	deadline := time.Now().Add(probeTime(full))
	contendedLoop(p, gen, contendedWindow, func() bool { return time.Now().After(deadline) }, func(r contendedResult) {
		done = append(done, r)
	})
	close(stop)
	wg.Wait()
	if err := drain(p); err != nil {
		return err
	}
	var submit, bare, overhead []float64
	var waited, medium float64
	served := 0
	for _, r := range done {
		submit = append(submit, float64(r.submit)/1e3)
		if r.err != nil {
			continue
		}
		res, err := r.s.Result()
		c.check(err == nil && res.Correct, "served session %s: %v", r.s.ID, err)
		if err != nil {
			continue
		}
		served++
		waited += float64(res.WaitedSlots)
		medium += float64(res.MediumSlots)
		b, took, err := bareSession(r.s.Spec)
		c.check(err == nil && b.Decision == res.Decision && b.Queries == res.Polls,
			"session %s: bare replay decided %v in %d polls, served %v in %d (%v)", r.s.ID, b.Decision, b.Queries, res.Decision, res.Polls, err)
		bare = append(bare, float64(took)/1e3)
		overhead = append(overhead, float64(r.s.Wall()-took)/1e3)
	}
	if served == 0 {
		return fmt.Errorf("pool probe served no session")
	}
	c.rep.set("serve.submit_us.p50", "us", median(submit))
	c.rep.set("serve.bare_session_us.p50", "us", median(bare))
	c.rep.set("serve.overhead_us.p50", "us", median(overhead))
	c.rep.set("serve.active_mean", "sessions", mean(active))
	c.rep.set("serve.queued_mean", "sessions", mean(queued))
	c.rep.set("serve.waited_slots_per_query", "slots", waited/float64(served))
	c.rep.set("serve.medium_slots_per_query", "slots", medium/float64(served))
	for _, reason := range []string{"queue", "client", "draining"} {
		c.rep.set("serve.shed."+reason, "count", float64(reg.Counter("serve_shed_total", "reason", reason).Value()))
	}
	return nil
}

// probeHTTP runs the serve-http loop briefly against a fresh tcastd and
// splits the round trip into the session's own elapsed time and the
// HTTP layer around it.
func probeHTTP(c *child, full bool) error {
	dir, bin, err := serveHTTPDir(c)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	d, _, err := startDaemon(bin, dir, 0)
	if err != nil {
		return err
	}
	var (
		mu        sync.Mutex
		results   []httpResult
		completed int
	)
	gen := newSpecGen(c.opts.seed)
	cpu0 := selfCPU()
	client := newHTTPClient(runtime.NumCPU())
	defer client.CloseIdleConnections()
	httpLoop(client, d.base, gen, runtime.NumCPU(), time.Now().Add(probeTime(full)), func(r httpResult) {
		mu.Lock()
		results = append(results, r)
		completed++
		mu.Unlock()
	})
	loadCPU := selfCPU() - cpu0
	ru, err := d.stop()
	if err != nil {
		return err
	}
	var overhead []float64
	for _, r := range results {
		c.check(r.ok(), "request: code %d, err %v, %s", r.code, r.err, r.body)
		if r.ok() {
			overhead = append(overhead, float64(r.rtt)/1e3-r.status.ElapsedMs*1e3)
		}
	}
	c.rep.set("http.overhead_us.p50", "us", median(overhead))
	c.rep.set("tcastd.cpu_us_per_query", "us", cpuSeconds(ru)*1e6/float64(completed))
	c.rep.set("loadgen.cpu_s", "s", loadCPU)
	return nil
}

// keptSpan is one JSONL record of the span dump.
type keptSpan struct {
	Config string `json:"config"`
	span
}

// writeSpans dumps the kept replica spans as JSONL under .bench_build.
func writeSpans(c *child, kept []keptSpan) error {
	dir := filepath.Join(c.root, ".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", c.opts.workload, c.opts.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range kept {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	c.rep.note("spans: %d records in %s", len(kept), path)
	return nil
}
