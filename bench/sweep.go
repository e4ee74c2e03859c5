package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"tcast/internal/audit"
	"tcast/internal/experiment"
	"tcast/internal/faults"
	"tcast/internal/metrics"
	"tcast/internal/obs"
	"tcast/internal/query"
	"tcast/internal/trace"
)

// faultSpec is tcastbench's default fault spec: every injector knob at
// once (burst chains, churn, recovery, skew).
const faultSpec = "burst=8,frac=0.2,churn=0.002,recover=0.1,skew=0.01"

// sloSpec is the health rule set of figs-observed's obs plane.
const sloSpec = "maxpolls=200,minacc=0.99,window=1000"

// faultRetry is the retry policy stacked with faultSpec, as tcastbench's
// faulted entry stacks it.
var faultRetry = query.RetryPolicy{MaxRetries: 2, Backoff: 1}

// traceOp keys figs-observed's fifth operation of a pass: encoding the
// pass's span trace and audit statistics to their digests.
const traceOp = "trace+audit"

// sweep is a figure-sweep workload: a list of experiments run at
// sweepRuns trials, one pass after another, every table rendered and
// digested.
type sweep struct {
	name string
	// ids lists the experiments; nil means every registered experiment
	// except ext-scale, which the scale workload covers.
	ids []string
	// observed turns every observability layer on; faulted stacks the
	// fault injector, the retry policy and an audit collector.
	observed, faulted bool
}

var (
	figsSweep     = sweep{name: "figs"}
	observedSweep = sweep{name: "figs-observed", ids: []string{"fig1", "fig2", "fig5", "fig6"}, observed: true}
	faultedSweep  = sweep{name: "figs-faulted", ids: []string{"fig1", "fig5"}, faulted: true}
	sweeps        = []sweep{figsSweep, observedSweep, faultedSweep}
)

// Trial counts are cut from the paper's 1000 so that every table runs
// twenty or more times in one measured run (a pass takes ~0.3–0.5 s), and
// keyedLog reports each table's median over those runs.
const sweepRuns, shortSweepRuns = 20, 5

func sweepTrialRuns(short bool) int {
	if short {
		return shortSweepRuns
	}
	return sweepRuns
}

func (s sweep) experiments() ([]experiment.Experiment, error) {
	if s.ids == nil {
		var out []experiment.Experiment
		for _, e := range experiment.All() {
			if e.ID != "ext-scale" {
				out = append(out, e)
			}
		}
		return out, nil
	}
	out := make([]experiment.Experiment, len(s.ids))
	for i, id := range s.ids {
		e, err := experiment.Get(id)
		if err != nil {
			return nil, err
		}
		out[i] = e
	}
	return out, nil
}

// op is one timed operation of a pass: its time scaled to the nominal host
// speed, when the pass had a reference to scale it by.
type op struct {
	key    string
	dur    time.Duration
	digest string
	err    error
}

// pass runs every experiment once at the given seed and trial count. A
// non-nil scale runs the host-speed reference before each operation, and
// the operation's time is scaled by its factor.
func (s sweep) pass(exps []experiment.Experiment, seed uint64, runs int, scale func() (float64, error)) ([]op, error) {
	factor := func() (float64, error) {
		if scale == nil {
			return 1, nil
		}
		return scale()
	}
	opts := experiment.Options{Runs: runs, Seed: seed}
	var (
		col   *audit.Collector
		tb    *trace.Builder
		plane *obs.Plane
	)
	if s.observed {
		reg := metrics.New()
		var err error
		plane, err = obs.Config{Sketch: true, SLOSpec: sloSpec}.Build(io.Discard, reg, true)
		if err != nil {
			return nil, err
		}
		col, tb = &audit.Collector{}, trace.NewBuilder()
		opts.Metrics, opts.Audit, opts.Trace, opts.TraceSample, opts.Obs = reg, col, tb, 32, plane.Bus()
	}
	if s.faulted {
		fcfg, err := faults.ParseSpec(faultSpec)
		if err != nil {
			return nil, err
		}
		opts.Faults, opts.Retry = &fcfg, faultRetry
	}
	ops := make([]op, 0, len(exps)+1)
	for _, e := range exps {
		o := opts
		if s.faulted {
			o.Audit = &audit.Collector{}
		}
		f, err := factor()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if tb != nil {
			tb.Begin(trace.KindExperiment, e.ID)
		}
		tab, err := e.Run(o)
		if tb != nil {
			tb.End()
		}
		var digest string
		if err == nil {
			digest = sha(experiment.Render(tab))
		}
		d := time.Since(start)
		if err == nil && s.faulted {
			err = unattributed(o.Audit.Stats())
		}
		ops = append(ops, op{key: e.ID, dur: time.Duration(f * float64(d)), digest: digest, err: err})
	}
	if s.observed {
		f, err := factor()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		traceSum, _, err := encodeTrace(tb.Trace())
		var digest string
		if err == nil {
			var stats []byte
			stats, err = json.Marshal(col.Stats())
			digest = traceSum + "/" + sha(string(stats))
		}
		ops = append(ops, op{key: traceOp, dur: time.Duration(f * float64(time.Since(start))), digest: digest, err: err})
		if err := plane.Close(); err != nil {
			return nil, err
		}
	}
	return ops, nil
}

// unattributed fails a faulted table whose audit found a wrong decision it
// could not pin on an injected fault.
func unattributed(st audit.Stats) error {
	n := st.Outcomes[audit.OutcomeWrongUnattributed] + st.Outcomes[audit.OutcomeWrongAlgorithm]
	if n > 0 {
		return fmt.Errorf("%d wrong decision(s) not attributed to a fault", n)
	}
	return nil
}

// encodeTrace runs the trace codec into a SHA-256 writer, returning the
// digest and the encoded size.
func encodeTrace(t *trace.Trace) (string, int64, error) {
	h := sha256.New()
	cw := &countingWriter{w: h}
	if err := trace.Encode(cw, t); err != nil {
		return "", 0, err
	}
	return hex.EncodeToString(h.Sum(nil)), cw.n, nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func sha(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// setupRuns is the trial count of a sweep's cold pass.
const setupRuns = 1

// run is a sweep workload's child. Set-up is a cold start: the process
// starts, resolves its experiments and golden digests, and runs one pass
// at setupRuns trials, the first time each table's code runs in the
// process (lazy initialisation, heap growth, page faults). Passes then
// repeat until the measured time is spent. Every table must match the
// first pass (same seed, same bytes), the golden digest at the default
// seed, and for figs-observed the same tables run bare.
func (s sweep) run(c *child) error {
	exps, err := s.experiments()
	if err != nil {
		return err
	}
	runs := sweepTrialRuns(c.opts.short)
	golden := goldenFor(s.name, c.opts.seed, runs)
	cold, err := s.pass(exps, c.opts.seed, setupRuns, nil)
	if err != nil {
		return err
	}
	for _, o := range cold {
		if o.err != nil {
			return fmt.Errorf("cold pass %s: %w", o.key, o.err)
		}
	}
	c.ready()
	if c.opts.setupOnly {
		return nil
	}
	var bare map[string]string
	if s.observed {
		ops, err := sweep{name: "bare"}.pass(exps, c.opts.seed, runs, nil)
		if err != nil {
			return err
		}
		bare = map[string]string{}
		for _, o := range ops {
			if o.err != nil {
				return fmt.Errorf("bare reference %s: %w", o.key, o.err)
			}
			bare[o.key] = o.digest
		}
	}
	log := newKeyedLog()
	first := map[string]string{}
	start := time.Now()
	passes := 0
	for passes == 0 || time.Since(start) < c.measure() {
		ops, err := s.pass(exps, c.opts.seed, runs, c.scale)
		if err != nil {
			return err
		}
		for _, o := range ops {
			if passes == 0 {
				first[o.key] = o.digest
			}
			if o.err == nil {
				o.err = checkDigest(o, first, golden, bare)
			}
			if o.err != nil {
				c.progress("FAIL %s pass %d: %v", o.key, passes, o.err)
			}
			log.add(o.key, o.dur, o.err == nil)
		}
		passes++
	}
	measured := time.Since(start)
	c.emitKeyed(log, measured)
	c.rep.note("%d passes of %d experiments at %d runs; golden digests %s", passes, len(exps), runs, goldenState(golden))
	return nil
}

// checkDigest applies the relative and golden checks to one operation.
func checkDigest(o op, first, golden, bare map[string]string) error {
	if o.digest != first[o.key] {
		return fmt.Errorf("digest %.12s differs from the first pass's %.12s", o.digest, first[o.key])
	}
	if want, ok := golden[o.key]; ok && o.digest != want {
		return fmt.Errorf("digest %.12s differs from the golden %.12s", o.digest, want)
	}
	if want, ok := bare[o.key]; ok && o.digest != want {
		return fmt.Errorf("observed table %.12s differs from the bare run's %.12s", o.digest, want)
	}
	return nil
}

//go:embed testdata/digests.json
var digestsJSON []byte

// digestFile is bench/testdata/digests.json: per sweep workload, the
// SHA-256 of every operation's output at the default seed and the
// workload's full trial count.
type digestFile struct {
	Seed      uint64                  `json:"seed"`
	Workloads map[string]sweepDigests `json:"workloads"`
}

type sweepDigests struct {
	Runs    int               `json:"runs"`
	Digests map[string]string `json:"digests"`
}

// goldenFor returns the golden digests that apply to a run, or nil when
// the seed or trial count differs from the recorded ones (only the
// relative checks apply then).
func goldenFor(name string, seed uint64, runs int) map[string]string {
	var f digestFile
	if err := json.Unmarshal(digestsJSON, &f); err != nil || f.Seed != seed {
		return nil
	}
	if w, ok := f.Workloads[name]; ok && w.Runs == runs {
		return w.Digests
	}
	return nil
}

func goldenState(g map[string]string) string {
	if g == nil {
		return "not applicable (seed or runs differ), relative checks only"
	}
	return fmt.Sprintf("checked (%d entries)", len(g))
}

// updateDigests reruns one pass of each sweep workload at the default seed
// and rewrites bench/testdata/digests.json.
func updateDigests(w io.Writer, root string) error {
	f := digestFile{Seed: defaultSeed, Workloads: map[string]sweepDigests{}}
	for _, s := range sweeps {
		exps, err := s.experiments()
		if err != nil {
			return err
		}
		ops, err := s.pass(exps, defaultSeed, sweepRuns, nil)
		if err != nil {
			return err
		}
		d := sweepDigests{Runs: sweepRuns, Digests: map[string]string{}}
		for _, o := range ops {
			if o.err != nil {
				return fmt.Errorf("%s %s: %w", s.name, o.key, o.err)
			}
			d.Digests[o.key] = o.digest
		}
		f.Workloads[s.name] = d
		fmt.Fprintf(w, "%s: %d digests at runs=%d\n", s.name, len(d.Digests), sweepRuns)
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(root, "bench", "testdata", "digests.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintln(w, "wrote", path)
	return nil
}
