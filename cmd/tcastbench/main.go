// Command tcastbench is the perf-regression harness: it runs every
// registered figure benchmark plus the primitive micro-benchmarks
// in-process via testing.Benchmark and writes a schema-versioned
// BENCH.json. Besides wall-clock rates (ns/op, allocs/op) each entry
// carries the cost-model rates pulled from the trace layer — polls/sec and
// virtual-slots/sec — so a slowdown in the simulator is distinguishable
// from a change in the algorithms' query counts.
//
// Usage:
//
//	tcastbench                                # run everything, write BENCH.json
//	tcastbench -short -out BENCH.json         # CI smoke subset
//	tcastbench -run fig1                      # substring-filtered subset
//	tcastbench -baseline old.json -threshold 1.10   # fail (exit 1) on >10% ns/op regression
//	tcastbench -input new.json -baseline old.json   # compare two files without running
//	tcastbench -list                          # benchmark names and exit
//
// Trace tooling (the structured spans the -trace flags of the other
// commands write):
//
//	tcastbench -diff a.jsonl b.jsonl          # first divergent span, exit 1 if any
//	tcastbench -analyze t.jsonl               # per-phase virtual-time breakdown
//
// History mode keeps per-run snapshots and reads the trend across them:
//
//	tcastbench -short -history bench-history/   # run, then append BENCH_<n>.json
//	tcastbench -trend -history bench-history/   # print ns/op + allocs/op deltas
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"tcast/internal/audit"
	"tcast/internal/baseline"
	"tcast/internal/core"
	"tcast/internal/experiment"
	"tcast/internal/fastsim"
	"tcast/internal/faults"
	"tcast/internal/metrics"
	"tcast/internal/obs"
	"tcast/internal/pollcast"
	"tcast/internal/query"
	"tcast/internal/radio"
	"tcast/internal/rng"
	"tcast/internal/serve"
	"tcast/internal/session"
	"tcast/internal/trace"
)

// BENCH.json schema identifiers; bump Version on breaking shape changes.
const (
	benchSchema  = "tcast-bench"
	benchVersion = 1
)

// defaultFaultSpec exercises every injector knob at once, so the faulted
// benchmark prices the full fault-layer hot path (burst chains, churn,
// skew, retry middleware) rather than one mechanism.
const defaultFaultSpec = "burst=8,frac=0.2,churn=0.002,recover=0.1,skew=0.01"

// Result is one benchmark's entry in BENCH.json.
type Result struct {
	Name       string  `json:"name"`
	Iterations int     `json:"iterations"`
	NsOp       float64 `json:"ns_op"`
	AllocsOp   int64   `json:"allocs_op"`
	BytesOp    int64   `json:"bytes_op"`
	// Polls and VirtualSlots are the cost-model work of ONE iteration,
	// measured on a separate traced pass (zero when the benchmark has no
	// group polls, e.g. the analytic figures).
	Polls        int64 `json:"polls"`
	VirtualSlots int64 `json:"virtual_slots"`
	// PollsPerSec and VirtualSlotsPerSec divide that work by ns/op: the
	// simulator's throughput in the paper's own cost units.
	PollsPerSec        float64 `json:"polls_per_sec"`
	VirtualSlotsPerSec float64 `json:"virtual_slots_per_sec"`
	// TrialsPerSec is set on the per-trial parallel benchmarks (one trial
	// per op through experiment.RunTrials at full worker parallelism):
	// 1e9/ns_op, the pool's aggregate trial throughput.
	TrialsPerSec float64 `json:"trials_per_sec,omitempty"`
	// QueriesPerSec and P99LatencyNs are set on the serving benchmarks
	// (one op = one wave of c concurrent sessions through a serve.Pool):
	// aggregate query throughput derived from ns/op, and the
	// 99th-percentile session wall latency of a fixed measurement run.
	QueriesPerSec float64 `json:"queries_per_sec,omitempty"`
	P99LatencyNs  float64 `json:"p99_latency_ns,omitempty"`
}

// File is the whole BENCH.json document.
type File struct {
	Schema  string `json:"schema"`
	Version int    `json:"version"`
	// Timestamp (RFC 3339, UTC) is stamped on history snapshots so -trend
	// can order and label them; plain BENCH.json files omit it.
	Timestamp  string   `json:"timestamp,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

// bench is one runnable benchmark: the timed body plus an optional traced
// pass that meters one iteration's polls and virtual slots.
type bench struct {
	name  string
	short bool // include in -short (CI smoke) runs
	fn    func(b *testing.B)
	// traced measures one iteration's cost-model work; nil when the
	// benchmark has nothing to trace.
	traced func() (polls, slots int64, err error)
	// perTrial marks benchmarks whose op is one trial of a parallel pool;
	// they report TrialsPerSec so bare/traced/audited throughput lines up
	// side by side (see `make bench-obs`).
	perTrial bool
	// extra, when set, runs after the timed and traced passes to fill
	// benchmark-specific Result fields (the serving trio's queries/sec
	// and p99 latency).
	extra func(r *Result) error
}

func main() {
	var (
		out         = flag.String("out", "BENCH.json", "write results to this file ('-' = stdout)")
		short       = flag.Bool("short", false, "run only the smoke subset (micro-benchmarks + analytic figures)")
		run         = flag.String("run", "", "run only benchmarks whose name contains this substring")
		baseFile    = flag.String("baseline", "", "compare against this BENCH.json; exit 1 on regression")
		threshold   = flag.Float64("threshold", 1.10, "ns/op ratio above which a benchmark counts as regressed")
		allocGate   = flag.String("allocgate", "query-2tbins", "also gate allocs/op for benchmarks whose name contains this substring (empty disables)")
		allocThresh = flag.Float64("allocthreshold", 1.10, "allocs/op ratio above which a gated benchmark counts as regressed")
		memGate     = flag.String("memgate", "query-2tbins-s", "also gate bytes/op for benchmarks whose name contains this substring (empty disables; the default covers the telemetry-scale trio and the bare sparse pair)")
		memThresh   = flag.Float64("memthreshold", 1.25, "bytes/op ratio above which a gated benchmark counts as regressed")
		input       = flag.String("input", "", "compare this BENCH.json against -baseline instead of running")
		list        = flag.Bool("list", false, "list benchmark names and exit")
		diffMode    = flag.Bool("diff", false, "diff two span-trace JSONL files (args: a.jsonl b.jsonl); exit 1 on divergence")
		analyze     = flag.String("analyze", "", "print the per-phase virtual-time breakdown of this span-trace JSONL file")
		faultSpec   = flag.String("faults", defaultFaultSpec, "fault-injection spec for the query-2tbins-faulted benchmark")
		historyDir  = flag.String("history", "", "append this run's results as a timestamped BENCH_<n>.json snapshot in this directory")
		trend       = flag.Bool("trend", false, "print per-benchmark ns/op and allocs/op deltas across the -history snapshots instead of running")
		pprofDir    = flag.String("pprof", "", "write cpu/heap/goroutine/mutex/block profiles of the benchmark run into this directory")
	)
	var obsCfg obs.Config
	obsCfg.RegisterFlags(flag.CommandLine)
	flag.Parse()

	switch {
	case *diffMode:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-diff needs exactly two trace files, got %d args", flag.NArg()))
		}
		os.Exit(diffTraces(flag.Arg(0), flag.Arg(1)))
	case *analyze != "":
		t, err := trace.ReadFile(*analyze)
		if err != nil {
			fatal(err)
		}
		fmt.Print(trace.Analyze(t).Render())
		return
	case *list:
		for _, b := range benches(*faultSpec) {
			marker := ""
			if b.short {
				marker = "  (short)"
			}
			fmt.Printf("%s%s\n", b.name, marker)
		}
		return
	case *trend:
		if *historyDir == "" {
			fatal(fmt.Errorf("-trend needs -history <dir>"))
		}
		report, err := trendReport(*historyDir)
		if err != nil {
			fatal(err)
		}
		fmt.Print(report)
		return
	}

	plane, err := obsCfg.Build(os.Stderr, nil, false)
	if err != nil {
		fatal(err)
	}
	if *pprofDir != "" {
		stop, err := metrics.StartProfiles(*pprofDir)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(os.Stderr, "tcastbench: pprof:", err)
			}
		}()
	}

	var current File
	if *input != "" {
		f, err := readBenchFile(*input)
		if err != nil {
			fatal(err)
		}
		current = f
	} else {
		current = runBenches(*short, *run, *faultSpec, plane.Bus())
		if err := writeBenchFile(*out, current); err != nil {
			fatal(err)
		}
		if *historyDir != "" {
			path, err := appendHistory(*historyDir, current)
			if err != nil {
				fatal(err)
			}
			fmt.Println("appended history snapshot", path)
		}
	}

	if *baseFile != "" {
		base, err := readBenchFile(*baseFile)
		if err != nil {
			fatal(err)
		}
		if regressions := compare(base, current, *threshold, *allocGate, *allocThresh, *memGate, *memThresh); regressions > 0 {
			fmt.Fprintf(os.Stderr, "tcastbench: %d benchmark(s) regressed beyond %.2fx\n", regressions, *threshold)
			os.Exit(1)
		}
		fmt.Println("no regressions beyond threshold")
	}
	if err := plane.Close(); err != nil {
		fatal(err)
	}
}

// runBenches executes the selected benchmarks and collects results. Each
// result is also published on bus (when non-nil) as a KindBench event —
// the benchmark body itself always runs bare, so the published numbers
// are the same a silent run produces.
func runBenches(short bool, filter, faultSpec string, bus *obs.Bus) File {
	f := File{Schema: benchSchema, Version: benchVersion}
	for _, b := range benches(faultSpec) {
		if short && !b.short {
			continue
		}
		if filter != "" && !strings.Contains(b.name, filter) {
			continue
		}
		var res testing.BenchmarkResult
		obs.WithPhase(b.name, func() { res = testing.Benchmark(b.fn) })
		r := Result{
			Name:       b.name,
			Iterations: res.N,
			NsOp:       float64(res.NsPerOp()),
			AllocsOp:   res.AllocsPerOp(),
			BytesOp:    res.AllocedBytesPerOp(),
		}
		if b.traced != nil {
			polls, slots, err := b.traced()
			if err != nil {
				fatal(fmt.Errorf("%s: traced pass: %w", b.name, err))
			}
			r.Polls, r.VirtualSlots = polls, slots
			if r.NsOp > 0 {
				r.PollsPerSec = float64(polls) * 1e9 / r.NsOp
				r.VirtualSlotsPerSec = float64(slots) * 1e9 / r.NsOp
			}
		}
		if b.perTrial && r.NsOp > 0 {
			r.TrialsPerSec = 1e9 / r.NsOp
		}
		if b.extra != nil {
			if err := b.extra(&r); err != nil {
				fatal(fmt.Errorf("%s: extra pass: %w", b.name, err))
			}
		}
		f.Benchmarks = append(f.Benchmarks, r)
		line := fmt.Sprintf("%-24s %12.0f ns/op %8d allocs/op %12.0f polls/s %12.0f vslots/s",
			r.Name, r.NsOp, r.AllocsOp, r.PollsPerSec, r.VirtualSlotsPerSec)
		if r.TrialsPerSec > 0 {
			line += fmt.Sprintf(" %10.0f trials/s", r.TrialsPerSec)
		}
		if r.QueriesPerSec > 0 {
			line += fmt.Sprintf(" %10.0f queries/s p99=%.0fus", r.QueriesPerSec, r.P99LatencyNs/1e3)
		}
		if bus != nil {
			bus.Publish(obs.Event{
				Kind: obs.KindBench, Outcome: r.Name,
				Trial: -1, Poll: -1, CausalPoll: -1,
				Polls: int(r.NsOp), Slots: r.AllocsOp,
				Detail: fmt.Sprintf("%d iterations, %.0f ns/op, %d allocs/op, %.0f polls/s, %.0f vslots/s",
					r.Iterations, r.NsOp, r.AllocsOp, r.PollsPerSec, r.VirtualSlotsPerSec),
			})
		}
		fmt.Println(line)
	}
	return f
}

// memFloor is the bytes/op growth the memory gate ignores whatever the
// ratio: a bare 0-allocs/op bench reads 1 B/op in one run and 3 in the
// next from the runtime's own amortized allocations.
const memFloor = 256

// compare reports (and counts) the benchmarks whose ns/op grew beyond
// threshold relative to base. Benchmarks whose name contains allocGate are
// additionally held to allocThresh on allocs/op — the hot-path benchmarks
// are allocation-free by design, so new allocations are a regression even
// when the wall clock hides them. Benchmarks whose name contains memGate
// are likewise held to memThresh on bytes/op — the telemetry-scale trio
// exists to pin per-trial observability memory flat in N, so byte growth
// there is a regression regardless of speed — once it also exceeds
// memFloor, below which B/op moves with amortized runtime allocations.
// Benchmarks present on only one side are reported but never counted as
// regressions.
func compare(base, current File, threshold float64, allocGate string, allocThresh float64, memGate string, memThresh float64) int {
	baseline := make(map[string]Result, len(base.Benchmarks))
	for _, r := range base.Benchmarks {
		baseline[r.Name] = r
	}
	regressions := 0
	for _, r := range current.Benchmarks {
		old, ok := baseline[r.Name]
		if !ok {
			fmt.Printf("%-24s new benchmark (no baseline)\n", r.Name)
			continue
		}
		if old.NsOp <= 0 {
			continue
		}
		ratio := r.NsOp / old.NsOp
		status := "ok"
		if ratio > threshold {
			status = "REGRESSED"
			regressions++
		}
		if allocGate != "" && strings.Contains(r.Name, allocGate) &&
			float64(r.AllocsOp) > float64(old.AllocsOp)*allocThresh {
			status = fmt.Sprintf("ALLOCS REGRESSED (%d -> %d allocs/op)", old.AllocsOp, r.AllocsOp)
			regressions++
		}
		if memGate != "" && strings.Contains(r.Name, memGate) &&
			float64(r.BytesOp) > float64(old.BytesOp)*memThresh && r.BytesOp-old.BytesOp > memFloor {
			status = fmt.Sprintf("BYTES REGRESSED (%d -> %d B/op)", old.BytesOp, r.BytesOp)
			regressions++
		}
		fmt.Printf("%-24s %12.0f -> %12.0f ns/op  (%.2fx)  %s\n", r.Name, old.NsOp, r.NsOp, ratio, status)
	}
	return regressions
}

func diffTraces(pathA, pathB string) int {
	a, err := trace.ReadFile(pathA)
	if err != nil {
		fatal(err)
	}
	b, err := trace.ReadFile(pathB)
	if err != nil {
		fatal(err)
	}
	d := trace.Diff(a, b)
	fmt.Println(d)
	if d.Identical {
		return 0
	}
	return 1
}

func readBenchFile(path string) (File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return File{}, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return File{}, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != benchSchema {
		return File{}, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, benchSchema)
	}
	if f.Version != benchVersion {
		return File{}, fmt.Errorf("%s: version %d, want %d", path, f.Version, benchVersion)
	}
	return f, nil
}

func writeBenchFile(path string, f File) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// figureRuns is each experiment's reduced trial count per benchmark
// iteration, so one iteration stays well under the benchtime budget.
func figureRuns(id string) int {
	switch id {
	case "fig4", "tab-err":
		return 4
	case "fig8", "fig10":
		return 1
	case "ext-multihop":
		return 2
	case "ext-scale":
		// The sweep's trial budget is already clamped internally by N; one
		// run keeps the 10^7 point to a single session per iteration.
		return 1
	}
	if strings.HasPrefix(id, "abl-") || strings.HasPrefix(id, "ext-") {
		return 10
	}
	return 20
}

// shortFigure marks the figures cheap enough for the CI smoke subset: the
// analytic ones that do no Monte-Carlo sweeps.
func shortFigure(id string) bool {
	return id == "fig8" || id == "fig10"
}

// benches assembles the full benchmark list: every registered experiment
// (so a newly registered figure is covered automatically) followed by the
// primitive micro-benchmarks.
func benches(faultSpec string) []bench {
	var out []bench
	for _, e := range experiment.All() {
		e := e
		runs := figureRuns(e.ID)
		out = append(out, bench{
			name:  e.ID,
			short: shortFigure(e.ID),
			fn: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					tab, err := e.Run(experiment.Options{Runs: runs, Seed: uint64(i + 1)})
					if err != nil {
						b.Fatal(err)
					}
					if len(tab.Series) == 0 {
						b.Fatal("empty table")
					}
				}
			},
			traced: func() (int64, int64, error) {
				tb := trace.NewBuilder()
				if _, err := e.Run(experiment.Options{Runs: runs, Seed: 1, Trace: tb}); err != nil {
					return 0, 0, err
				}
				a := trace.Analyze(tb.Trace())
				return int64(a.Polls), a.Slots, nil
			},
		})
	}
	out = append(out,
		trialsBench("query-2tbins", obsBare),
		trialsBench("query-2tbins-traced", obsTraced),
		trialsBench("query-2tbins-audited", obsAudited),
		faultedTrialsBench(faultSpec),
		algBench("query-2tbins-2plus", core.TwoTBins{}, 128, 16, 16, fastsim.TwoPlusConfig()),
		algBench("query-expincrease", core.ExpIncrease{}, 128, 16, 16, fastsim.DefaultConfig()),
		algBench("query-probabns", core.ProbABNS{}, 128, 16, 16, fastsim.DefaultConfig()),
		csmaBench(),
		packetBench(),
	)
	out = append(out, scaleBenches()...)
	out = append(out, sparseBenches()...)
	out = append(out, serveBenches()...)
	return out
}

// serveBenches is the serving trio: one op is one wave of c concurrent
// 2tBins sessions through a serve.Pool sharing a single field (so every
// session pays the deterministic virtual-slot contention price). The
// deltas across c=1/8/64 are the scheduler's real-time cost under
// contention; QueriesPerSec is the daemon-side throughput and
// P99LatencyNs the tail session latency of a fixed 256-session run.
func serveBenches() []bench {
	var out []bench
	for _, c := range []int{1, 8, 64} {
		out = append(out, serveBench(c))
	}
	return out
}

func serveBench(conc int) bench {
	const n, t, x = 128, 16, 16
	poolCfg := serve.Config{
		Fields: 1, MaxActive: conc,
		// A finished wave's admission slots are free once Done() fires,
		// but its scheduler tokens return a moment later, so the next wave
		// can briefly queue behind the previous one's teardown: size the
		// queue and the per-client bound to absorb two full waves.
		MaxQueue: 2 * conc, MaxPerClient: 4 * conc,
		MaxHistory: 1,
	}
	wave := func(p *serve.Pool, seed uint64, lat []time.Duration) ([]time.Duration, error) {
		subs := make([]*serve.Session, conc)
		for j := range subs {
			s, err := p.Submit(serve.Spec{
				N: n, T: t, X: x, Alg: "2tbins",
				Seed: seed + uint64(j), Field: 0,
			}, "bench")
			if err != nil {
				return lat, err
			}
			subs[j] = s
		}
		for _, s := range subs {
			<-s.Done()
			if _, err := s.Result(); err != nil {
				return lat, err
			}
			if lat != nil {
				lat = append(lat, s.Wall())
			}
		}
		return lat, nil
	}
	return bench{
		name:  fmt.Sprintf("serve-2tbins-c%d", conc),
		short: true,
		fn: func(b *testing.B) {
			p := serve.NewPool(poolCfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := wave(p, uint64(i*conc)+1, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			if err := p.Drain(ctx); err != nil {
				b.Fatal(err)
			}
		},
		extra: func(r *Result) error {
			if r.NsOp > 0 {
				r.QueriesPerSec = float64(conc) * 1e9 / r.NsOp
			}
			// Dedicated tail-latency run: 256 sessions in waves of conc.
			p := serve.NewPool(poolCfg)
			waves := (256 + conc - 1) / conc
			lat := make([]time.Duration, 0, waves*conc)
			var err error
			for w := 0; w < waves; w++ {
				if lat, err = wave(p, uint64(w*conc)+1, lat); err != nil {
					return err
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			if err := p.Drain(ctx); err != nil {
				return err
			}
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			r.P99LatencyNs = float64(lat[(len(lat)*99+99)/100-1])
			return nil
		},
	}
}

// sessions pools the n=128 trial benchmarks' sessions the way the sweep
// driver pools its trials', so the bare benchmark prices the same
// allocation-free hot path the figures run on.
var sessions = sync.Pool{New: func() any { return new(session.Session) }}

// pooledTrial runs one session of sp on a pooled Session and returns its
// query count.
func pooledTrial(sp session.Spec, r *rng.Source) (float64, error) {
	s := sessions.Get().(*session.Session)
	defer sessions.Put(s)
	if err := s.Reset(sp, r); err != nil {
		return 0, err
	}
	res, err := s.Run()
	return float64(res.Queries), err
}

// tracedTrial meters one session's cost-model work for a traced pass:
// trial 0 of seed 1, recorded through the span layer.
func tracedTrial(sp session.Spec) (polls, slots int64, err error) {
	tb := trace.NewBuilder()
	sp.Trace = tb
	var s session.Session
	if err := s.Reset(sp, rng.New(1).Split(0)); err != nil {
		return 0, 0, err
	}
	if _, err := s.Run(); err != nil {
		return 0, 0, err
	}
	tb.Graft()
	a := trace.Analyze(tb.Trace())
	return int64(a.Polls), a.Slots, nil
}

// twoTBinsSpec is the benchmarks' bare 2tBins session at x = t = 16 on a
// field of n nodes.
func twoTBinsSpec(n int) session.Spec {
	return session.Spec{N: n, T: scaleT, X: scaleX, Collision: fastsim.DefaultConfig(), Algorithm: core.TwoTBins{}, Label: "2tBins"}
}

// trialBatch is the batch size of the parallel trial benchmarks: a fresh
// trace builder is grafted (or the audit batch flushed) every trialBatch
// trials, as the sweep driver does every point.
const trialBatch = 1000

// runTrialBatches runs total trials of sp through experiment.RunTrials at
// full worker parallelism, in batches of trialBatch with a fresh seed
// each.
func runTrialBatches(total int, sp session.Spec, traced bool) error {
	workers := runtime.GOMAXPROCS(0)
	for done, seed := 0, uint64(1); done < total; seed++ {
		m := total - done
		if m > trialBatch {
			m = trialBatch
		}
		batch := sp
		if traced {
			batch.Trace = trace.NewBuilder()
		}
		trial := func(i int, r *rng.Source) (float64, error) {
			sp := batch
			sp.Trial = i
			return pooledTrial(sp, r)
		}
		if _, err := experiment.RunTrials(m, workers, rng.New(seed), trial); err != nil {
			return err
		}
		if batch.Trace != nil {
			batch.Trace.Graft()
		}
		if batch.Audit != nil {
			batch.Audit.Flush()
		}
		done += m
	}
	return nil
}

// obsLayer selects the observability stack of a trialsBench entry.
type obsLayer int

const (
	obsBare obsLayer = iota
	obsTraced
	obsAudited
)

// trialsBench is the parallel-observability trio: one op is one 2tBins
// trial (n=128, t=16, x=16) run through experiment.RunTrials at full
// worker parallelism, with the chosen layer stacked by the session
// pipeline exactly as the sweep driver stacks it. The measured cost
// includes the fork/graft and flush bookkeeping of the batches, and
// memory stays bounded at any b.N. The deltas between the three entries
// are the traced and audited overheads per trial; against a serial
// baseline the trials/sec column shows the parallel speedup.
func trialsBench(name string, layer obsLayer) bench {
	return bench{
		name:     name,
		short:    true,
		perTrial: true,
		fn: func(b *testing.B) {
			sp := twoTBinsSpec(128)
			if layer == obsAudited {
				sp.Audit = &audit.Collector{}
			}
			b.ReportAllocs()
			if err := runTrialBatches(b.N, sp, layer == obsTraced); err != nil {
				b.Fatal(err)
			}
		},
		traced: func() (int64, int64, error) { return tracedTrial(twoTBinsSpec(128)) },
	}
}

// faultedTrialsBench is trialsBench's faulted sibling: the same parallel
// 2tBins trial pool with the fault injector and retry middleware stacked
// above the channel, exactly as `-faults`/`-retries` stack them in
// tcastsim. The delta against query-2tbins is the injection + retry
// overhead per trial. Decisions are not checked — under injected faults
// some are wrong by design; the trial only has to complete.
func faultedTrialsBench(spec string) bench {
	fcfg, err := faults.ParseSpec(spec)
	if err != nil {
		fatal(fmt.Errorf("-faults: %w", err))
	}
	sp := twoTBinsSpec(128)
	sp.Faults, sp.Retry = &fcfg, query.RetryPolicy{MaxRetries: 2, Backoff: 1}
	return bench{
		name:     "query-2tbins-faulted",
		short:    true,
		perTrial: true,
		fn: func(b *testing.B) {
			b.ReportAllocs()
			if err := runTrialBatches(b.N, sp, false); err != nil {
				b.Fatal(err)
			}
		},
		// The span recorder discovers the retry middleware's slot meter,
		// so backoff slots are priced in.
		traced: func() (int64, int64, error) { return tracedTrial(sp) },
	}
}

// algBench times one tcast session per iteration on the abstract channel;
// its traced pass meters the same session through the span recorder.
func algBench(name string, alg core.Algorithm, n, t, x int, cfg fastsim.Config) bench {
	sp := session.Spec{N: n, T: t, X: x, Collision: cfg, Algorithm: alg}
	return bench{
		name:  name,
		short: true,
		fn: func(b *testing.B) {
			root := rng.New(1)
			var s session.Session
			var r rng.Source
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				root.SplitInto(uint64(i), &r)
				if err := s.Reset(sp, &r); err != nil {
					b.Fatal(err)
				}
				if _, err := s.Run(); err != nil {
					b.Fatal(err)
				}
			}
		},
		traced: func() (int64, int64, error) { return tracedTrial(sp) },
	}
}

// csmaBench times the abstract CSMA baseline; slots stand in for virtual
// time, and it has no group polls to trace.
func csmaBench() bench {
	return bench{
		name:  "baseline-csma",
		short: true,
		fn: func(b *testing.B) {
			root := rng.New(1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := root.Split(uint64(i))
				baseline.CSMA{}.Run(128, 16, 32, r.Split(2), nil)
			}
		},
		traced: func() (int64, int64, error) {
			r := rng.New(1).Split(0)
			res := baseline.CSMA{}.Run(128, 16, 32, r.Split(2), nil)
			return 0, int64(res.Slots), nil
		},
	}
}

// packetBench times 2tBins over the packet-level backcast radio; the
// traced pass rides the session's own slot meter (3 slots per query).
func packetBench() bench {
	substrate := func(r *rng.Source) (*pollcast.Session, error) {
		parts := make([]*pollcast.Participant, 64)
		for id := range parts {
			parts[id] = &pollcast.Participant{ID: id}
		}
		for _, id := range r.Split(1).Sample(64, 8) {
			parts[id].Positive = true
		}
		med := radio.NewMedium(radio.Config{}, r.Split(2))
		return pollcast.NewSession(med, 1<<16, parts, pollcast.Backcast, query.OnePlus)
	}
	return bench{
		name:  "packet-backcast-2tbins",
		short: true,
		fn: func(b *testing.B) {
			root := rng.New(1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := root.Split(uint64(i))
				sess, err := substrate(r)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := (core.TwoTBins{}).Run(sess, 64, 8, r.Split(3)); err != nil {
					b.Fatal(err)
				}
			}
		},
		traced: func() (int64, int64, error) {
			// The bare pollcast substrate with the span layer alone: it
			// prices the packet-level cost model, not a session pipeline.
			r := rng.New(1).Split(0)
			sess, err := substrate(r)
			if err != nil {
				return 0, 0, err
			}
			tb := trace.NewBuilder()
			sq := trace.NewSpanQuerier(sess, tb)
			sq.StartSession("2tBins")
			if _, err := (core.TwoTBins{}).Run(sq, 64, 8, r.Split(3)); err != nil {
				return 0, 0, err
			}
			sq.EndSession()
			a := trace.Analyze(tb.Trace())
			return int64(a.Polls), a.Slots, nil
		},
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tcastbench:", err)
	os.Exit(1)
}
