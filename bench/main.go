// Command bench is tcast's end-to-end and per-layer benchmark.
//
// It runs six named workloads, each in its own child process so that peak
// memory and heap state belong to one workload, checks every output for
// correctness, prints each metric by name with its unit, and writes a
// host-stamped result JSON:
//
//	bash bench/run.sh                              # all six workloads (from the repo root)
//	bash bench/run.sh -workload figs -seed 7       # one workload
//	bash bench/run.sh -workload scale -trace 1     # the traced run: per-layer metrics
//	bash bench/run.sh -compare dirA dirB           # medians, quartiles and verdicts
//	bash bench/run.sh -update-digests              # rewrite bench/testdata/digests.json
//
// run.sh builds this module into .bench_build/ and passes its arguments on;
// `cd bench && go run . <flags>` does the same with the default Go cache.
// With a single -workload the last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Times are scaled
// towards a nominal host speed by a reference run beside each operation
// (hostref.go). See README.md for the workloads, the metric definitions
// and their bounds.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the seed EXPERIMENTS.md and tcastfigs use; the golden
// digests are recorded at it.
const defaultSeed = 2011

// childEnv marks a process as a workload child; its value is unused. An
// environment variable rather than a flag lets the test binary's TestMain
// recognise a child before the testing package parses its flags.
const childEnv = "TCAST_BENCH_CHILD"

// setupSpawns is how many extra times a sweep workload's process is
// started to measure set-up; set-up is reported as the median.
const setupSpawns = 20

type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     int
	short     bool
	setupOnly bool
	out       string
}

// flagSet declares the flags the parent and the child share.
func flagSet(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run only this workload (default: all six, in order)")
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "seed of every generated input; golden digests apply at the default")
	fs.Float64Var(&o.seconds, "seconds", 15, "measured seconds per workload (BENCHMARK.json run_seconds)")
	fs.IntVar(&o.trace, "trace", 0, "1 runs the workload's traced run and reports per-layer metrics instead")
	fs.BoolVar(&o.short, "short", false, "about one second per workload, at reduced sizes (tests)")
	return fs
}

func main() {
	switch {
	case os.Getenv(refEnv) != "":
		os.Exit(refMain(os.Stdin, os.Stdout))
	case os.Getenv(childEnv) != "":
		os.Exit(childMain(os.Args[1:], os.Stdout))
	}
	os.Exit(parentMain(os.Args[1:], os.Stdout))
}

// parentMain runs the selected workloads in child processes, or one of the
// offline modes, and returns the exit code.
func parentMain(args []string, stdout io.Writer) int {
	var o options
	fs := flagSet(&o)
	fs.StringVar(&o.out, "out", "", "directory for result JSON files (default .bench_build/results under the repo root)")
	compare := fs.Bool("compare", false, "compare the result files of two directories: -compare dirA dirB")
	update := fs.Bool("update-digests", false, "rerun the sweep workloads once at the default seed and rewrite bench/testdata/digests.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			return fail(errors.New("-compare needs two result directories"))
		}
		return compareDirs(stdout, root, fs.Arg(0), fs.Arg(1))
	case *update:
		if err := updateDigests(stdout, root); err != nil {
			return fail(err)
		}
		return 0
	}
	if o.trace != 0 && o.trace != 1 {
		return fail(fmt.Errorf("-trace must be 0 or 1, got %d", o.trace))
	}
	names := workloadNames
	if o.workload != "" {
		if _, ok := workloads[o.workload]; !ok {
			return fail(fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames, ", ")))
		}
		names = []string{o.workload}
	}
	if o.out == "" {
		o.out = filepath.Join(root, ".bench_build", "results")
	}
	host := newHostStamp(root, o.seed)
	fmt.Fprintln(stdout, host)
	file := resultFile{Schema: resultSchema, Host: host, Trace: o.trace, Seconds: o.seconds, Short: o.short}
	for _, name := range names {
		start := time.Now()
		res, err := runWorkload(stdout, name, o)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", name, err))
		}
		file.Host.Durations[name] = time.Since(start).Seconds()
		file.Workloads = append(file.Workloads, res)
		printResult(stdout, res)
	}
	fmt.Fprintf(stdout, "durations:")
	for _, name := range names {
		fmt.Fprintf(stdout, " %s=%.1fs", name, file.Host.Durations[name])
	}
	fmt.Fprintln(stdout)
	path, err := file.write(o.out)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, "wrote", path)
	if len(names) == 1 {
		line, err := json.Marshal(file.Workloads[0].summary())
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, string(line))
	}
	for _, w := range file.Workloads {
		if !w.Correct {
			return 1
		}
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}

// findRoot returns the tcast repository root: the working directory or
// one of its parents whose go.mod declares module tcast.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for i := 0; i < 3; i++ {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module tcast\n") {
			return dir, nil
		}
		dir = filepath.Dir(dir)
	}
	return "", errors.New("not inside the tcast repository (no go.mod declaring module tcast)")
}

// runWorkload measures one workload: for the sweeps the set-up spawns, then
// the child that does the work, whose report it completes with the
// parent-side measurements (set-up from spawns, peak RSS from rusage).
func runWorkload(stdout io.Writer, name string, o options) (workloadResult, error) {
	fmt.Fprintf(stdout, "== %s (seed %d, %gs, trace %d)\n", name, o.seed, o.seconds, o.trace)
	var setup []float64
	if workloads[name].spawnSetup && o.trace == 0 {
		var err error
		if setup, err = spawnSetups(name, o); err != nil {
			return workloadResult{}, fmt.Errorf("set-up spawn: %w", err)
		}
	}
	_, rep, rusage, err := spawn(stdout, name, o)
	if err != nil {
		return workloadResult{}, err
	}
	res := workloadResult{
		Workload: name, Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed,
		Metrics: rep.Metrics, Notes: rep.Notes,
	}
	if o.trace == 0 {
		if len(rep.Setup) > 0 {
			setup = rep.Setup
		}
		res.Metrics["setup_s"] = metric{Value: median(setup), Unit: "s"}
		rss := float64(rusage.Maxrss) / 1024 // Linux reports KiB
		if rep.RSSMB > 0 {
			rss = rep.RSSMB
		}
		res.Metrics["max_rss_mb"] = metric{Value: rss, Unit: "MB"}
	}
	if rep.Attempted < 1 {
		res.Correct = false
	}
	return res, nil
}

// spawnSetups starts a sweep workload's child setupSpawns times, each after
// a run of the host-speed reference, and returns each child's time to
// "ready" scaled by it.
func spawnSetups(name string, o options) (setup []float64, err error) {
	ref, err := startRef()
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, ref.stop()) }()
	o.setupOnly = true
	for i := 0; i < setupSpawns; i++ {
		f, err := ref.scale()
		if err != nil {
			return nil, err
		}
		ready, _, _, err := spawn(io.Discard, name, o)
		if err != nil {
			return nil, err
		}
		setup = append(setup, f*ready)
	}
	return setup, nil
}

// spawn runs one child for the workload. It returns the seconds from
// start to the child's "ready" line, the child's final report, and its
// rusage. Lines the child prints between the two are progress notes,
// copied to progress.
func spawn(progress io.Writer, name string, o options) (float64, report, *syscall.Rusage, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, report{}, nil, err
	}
	args := []string{"-workload", name, "-seed", fmt.Sprint(o.seed),
		"-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(o.trace)}
	if o.short {
		args = append(args, "-short")
	}
	if o.setupOnly {
		args = append(args, "-setup-only")
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, report{}, nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, report{}, nil, err
	}
	var ready float64
	var last string
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == readyLine && ready == 0:
			ready = time.Since(start).Seconds()
		case strings.HasPrefix(line, reportPrefix):
			last = strings.TrimPrefix(line, reportPrefix)
		default:
			fmt.Fprintln(progress, "  "+line)
		}
	}
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil {
		return 0, report{}, nil, fmt.Errorf("child: %w", err)
	}
	if scanErr != nil {
		return 0, report{}, nil, scanErr
	}
	if ready == 0 {
		return 0, report{}, nil, errors.New("child never reported ready")
	}
	var rep report
	if !o.setupOnly {
		if err := json.Unmarshal([]byte(last), &rep); err != nil {
			return 0, report{}, nil, fmt.Errorf("child report: %w", err)
		}
	}
	ru, _ := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if ru == nil {
		ru = &syscall.Rusage{}
	}
	return ready, rep, ru, nil
}

// printResult prints a workload's metrics by name with their units.
func printResult(w io.Writer, r workloadResult) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "%-16s %-44s %14.6g %s\n", r.Workload, n, m.Value, m.Unit)
	}
	for _, note := range r.Notes {
		fmt.Fprintf(w, "%-16s %s\n", r.Workload, note)
	}
	verdict := "correct"
	if !r.Correct {
		verdict = "INCORRECT"
	}
	fmt.Fprintf(w, "%-16s %s: %d attempted, %d failed\n", r.Workload, verdict, r.Attempted, r.Failed)
}
