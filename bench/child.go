package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"time"
)

// workload is one named workload; run executes it inside its child.
type workload struct {
	// spawnSetup marks workloads whose set-up is the child's own cold
	// start (process start, package init, a first pass), which only the
	// parent can time.
	spawnSetup bool
	run        func(c *child) error
}

// workloadNames fixes the run order of a full benchmark.
var workloadNames = []string{"figs", "figs-observed", "figs-faulted", "scale", "serve-http", "serve-contended"}

var workloads = map[string]workload{
	"figs":            {spawnSetup: true, run: figsSweep.run},
	"figs-observed":   {spawnSetup: true, run: observedSweep.run},
	"figs-faulted":    {spawnSetup: true, run: faultedSweep.run},
	"scale":           {run: runScale},
	"serve-http":      {run: runServeHTTP},
	"serve-contended": {run: runServeContended},
}

// child is one workload process's context.
type child struct {
	opts options
	root string
	out  io.Writer
	rep  *report
	// ref is the host-speed reference helper, started on first use;
	// factors are the scale factors it has returned.
	ref     *hostRef
	factors []float64
}

// scale runs the host-speed reference and returns the factor that scales a
// time measured now to the nominal host speed (see hostref.go).
func (c *child) scale() (float64, error) {
	if c.ref == nil {
		ref, err := startRef()
		if err != nil {
			return 0, err
		}
		c.ref = ref
	}
	f, err := c.ref.scale()
	if err == nil {
		c.factors = append(c.factors, f)
	}
	return f, err
}

// ready tells the parent that set-up is over.
func (c *child) ready() { fmt.Fprintln(c.out, readyLine) }

// progress prints a note the parent passes through.
func (c *child) progress(format string, args ...any) {
	fmt.Fprintf(c.out, format+"\n", args...)
}

// measure returns the measured duration of the run.
func (c *child) measure() time.Duration {
	return time.Duration(c.opts.seconds * float64(time.Second))
}

func childMain(args []string, stdout io.Writer) int {
	var o options
	fs := flagSet(&o)
	fs.BoolVar(&o.setupOnly, "setup-only", false, "exit once set-up is done (set-up timing spawns)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[o.workload]
	if !ok {
		return fail(fmt.Errorf("child: unknown workload %q", o.workload))
	}
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	c := &child{opts: o, root: root, out: stdout, rep: newReport()}
	steal0, total0, _ := cpuTimes()
	if o.trace == 1 {
		c.ready()
		err = runTraced(c)
	} else {
		err = w.run(c)
	}
	if steal1, total1, ok := cpuTimes(); ok && total1 > total0 {
		c.rep.note("steal: %.1f%% of CPU time during the run", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	if c.ref != nil {
		err = errors.Join(err, c.ref.stop())
		c.rep.note("host-speed factor: median %.3f over %d reference runs (1 = nominal)", median(c.factors), len(c.factors))
	}
	if err != nil {
		return fail(fmt.Errorf("%s: %w", o.workload, err))
	}
	if o.setupOnly {
		return 0
	}
	data, err := json.Marshal(c.rep)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, reportPrefix+string(data))
	return 0
}

// opLog collects one workload's operations: each one's latency in ms, +Inf
// when it failed.
type opLog struct {
	lat       latencies
	attempted int
	failed    int
}

func (l *opLog) add(d time.Duration, ok bool) float64 {
	l.attempted++
	ms := float64(d) / 1e6
	if !ok {
		l.failed++
		ms = math.Inf(1)
	}
	l.lat = append(l.lat, ms)
	return ms
}

// keyedLog is the opLog of a workload whose passes repeat the same keyed
// operations (a table, a session), each time scaled to the nominal host
// speed. Each key's latency is its median across passes, and a pass is
// estimated as the sum of those medians.
type keyedLog struct {
	opLog
	byKey map[string][]float64
	keys  []string
}

func newKeyedLog() *keyedLog { return &keyedLog{byKey: map[string][]float64{}} }

func (l *keyedLog) add(key string, d time.Duration, ok bool) {
	ms := l.opLog.add(d, ok)
	if _, seen := l.byKey[key]; !seen {
		l.keys = append(l.keys, key)
	}
	l.byKey[key] = append(l.byKey[key], ms)
}

// keyLatencies returns each key's median latency; a key that failed in
// any pass is +Inf.
func (l *keyedLog) keyLatencies() latencies {
	out := make(latencies, 0, len(l.keys))
	for _, k := range l.keys {
		v := median(l.byKey[k])
		if slices.Contains(l.byKey[k], math.Inf(1)) {
			v = math.Inf(1)
		}
		out = append(out, v)
	}
	return out
}

// emitKeyed reports a keyed workload: wall_s is the estimated pass and
// the percentiles are over the keys' latencies, so p50_ms is a typical
// operation and p99_ms the slowest one.
func (c *child) emitKeyed(l *keyedLog, measured time.Duration) {
	lat := l.keyLatencies()
	pass := 0.0
	for _, ms := range lat {
		pass += ms / 1e3
	}
	c.emit(&l.opLog, pass, lat.percentile(0.50), lat.percentile(0.99), measured)
}

// emit reports the end-to-end metrics common to every workload: wall_s
// (one pass), p50_ms and p99_ms. The tail note is over every operation as
// logged.
func (c *child) emit(l *opLog, wallS, p50, p99 float64, measured time.Duration) {
	r := c.rep
	r.Attempted += l.attempted
	r.Failed += l.failed
	r.set("wall_s", "s", wallS)
	r.set("p50_ms", "ms", p50)
	r.set("p99_ms", "ms", p99)
	if label, v, ok := l.lat.tailPercentile(); ok {
		r.note("%d operations in %.2fs; tail %s = %.4g ms (not gated)", l.attempted, measured.Seconds(), label, v)
	} else {
		r.note("%d operations in %.2fs", l.attempted, measured.Seconds())
	}
}
