// Command tcastsim runs ad-hoc threshold-query simulations: pick a
// network size, ground truth and algorithm, and see the decision and cost.
//
// Usage:
//
//	tcastsim -n 128 -t 16 -x 20 -alg 2tbins -runs 1000
//	tcastsim -n 128 -t 16 -x 20 -alg exp -model 2+
//	tcastsim -n 32  -t 8  -x 12 -alg csma
//
// -alg takes the tcast algorithms tcastd serves (see -h) plus the csma
// and seq baselines. Inputs are checked by the same rules tcastd applies
// to a request, so a spec tcastd rejects fails here too.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"tcast/internal/audit"
	"tcast/internal/baseline"
	"tcast/internal/bitset"
	"tcast/internal/experiment"
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

func main() {
	var (
		n       = flag.Int("n", 128, "participant nodes")
		t       = flag.Int("t", 16, "threshold")
		x       = flag.Int("x", 8, "ground-truth positive nodes")
		alg     = flag.String("alg", "2tbins", "algorithm: "+strings.Join(append(session.Algorithms(), "csma", "seq"), " | "))
		model   = flag.String("model", "1+", "collision model: 1+ | 2+")
		runs    = flag.Int("runs", 1000, "number of trials")
		workers = flag.Int("workers", 0, "trial parallelism (0 = GOMAXPROCS); results are worker-count-independent")
		seed    = flag.Uint64("seed", 2011, "root random seed")
		miss    = flag.Float64("miss", 0, "per-reply miss probability (radio irregularity)")
		dump    = flag.Bool("dump", false, "print a poll-by-poll trace of the sweep's trial 0 before the sweep")
		doAudit = flag.Bool("audit", false, "grade every session against ground truth and print the audit summary (tcast algorithms only)")

		faultsSpec = flag.String("faults", "", "fault-injection spec, e.g. burst=8,frac=0.2,churn=0.01,skew=0.01 (csma honors the burst process via its drop hook)")
		retries    = flag.Int("retries", 0, "initiator retry budget per silent poll (tcast algorithms)")
		backoff    = flag.Int("backoff", 0, "idle slots before each retry")

		traceOut    = flag.String("trace", "", "write a structured span trace (JSONL, virtual time) of the whole sweep to this file")
		traceSample = flag.Int("trace-sample", 1, "record 1-in-k poll leaf spans per session (k<=1 records all); virtual clock and session counters stay exact")
		metricsOut  = flag.String("metrics", "", "dump per-poll metrics to this file after the sweep ('-' = stdout, .prom = Prometheus format)")
		pprofDir    = flag.String("pprof", "", "write cpu/heap/goroutine/mutex/block profiles for the sweep into this directory")
	)
	var obsCfg obs.Config
	obsCfg.RegisterFlags(flag.CommandLine)
	flag.Parse()

	var reg *metrics.Registry
	if *metricsOut != "" || obsCfg.Enabled() {
		reg = metrics.New()
	}
	plane, err := obsCfg.Build(os.Stderr, reg, false)
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
				fmt.Fprintln(os.Stderr, "tcastsim: pprof:", err)
			}
		}()
	}

	cfg, err := session.Model(*model)
	if err != nil {
		fatal(err)
	}
	cfg.MissProb = *miss

	var builder *trace.Builder
	if *traceOut != "" {
		builder = trace.NewBuilder()
		builder.SetMeta(
			trace.StringAttr("cmd", "tcastsim"),
			trace.StringAttr("alg", *alg),
			trace.IntAttr("n", *n), trace.IntAttr("t", *t), trace.IntAttr("x", *x),
			trace.StringAttr("model", *model),
			trace.Int64Attr("seed", int64(*seed)),
			trace.IntAttr("runs", *runs),
		)
	}

	var col *audit.Collector
	if *doAudit {
		col = &audit.Collector{}
	}
	fcfg, err := faults.ParseSpec(*faultsSpec)
	if err != nil {
		fatal(err)
	}
	retry := query.RetryPolicy{MaxRetries: *retries, Backoff: *backoff}
	trial, name, err := buildTrial(*alg, *n, *t, *x, cfg, fcfg, retry, reg, builder, *traceSample, col, plane.Bus())
	if err != nil {
		fatal(err)
	}
	if *dump {
		if err := printTrace(os.Stdout, *alg, *n, *t, *x, cfg, fcfg, retry, *seed); err != nil {
			fatal(err)
		}
	}
	if builder != nil {
		sp := builder.Begin(trace.KindExperiment, "tcastsim")
		sp.SetAttr(trace.StringAttr("alg", name))
	}
	w := *workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	// Trials fan out over the pool; each records into its own trace fork
	// and audit slot keyed by trial index, so the outputs below are
	// bit-identical for any worker count.
	values, err := experiment.RunTrials(*runs, w, rng.New(*seed), trial)
	if err != nil {
		fatal(err)
	}
	if col != nil {
		col.Flush()
	}
	if builder != nil {
		builder.Graft()
		if err := trace.WriteFile(*traceOut, builder.Trace()); err != nil {
			fatal(err)
		}
	}
	var acc stats.Running
	for _, v := range values {
		acc.Observe(v)
	}
	fmt.Printf("%s  n=%d t=%d x=%d model=%s runs=%d\n", name, *n, *t, *x, *model, *runs)
	fmt.Printf("ground truth: x >= t is %v\n", *x >= *t)
	fmt.Printf("mean cost: %.2f queries/slots (95%% CI ±%.2f, min %.0f, max %.0f)\n",
		acc.Mean(), acc.CI95(), acc.Min(), acc.Max())
	qs := stats.Quantiles(values, 0.5, 0.9, 0.99)
	fmt.Printf("quantiles: p50=%.0f p90=%.0f p99=%.0f\n", qs[0], qs[1], qs[2])
	if col != nil {
		fmt.Print(col.Summary())
	}
	if *metricsOut != "" {
		if err := metrics.DumpToPath(reg, *metricsOut); err != nil {
			fatal(err)
		}
	}
	if s := plane.Summary(); s != "" {
		fmt.Fprint(os.Stderr, s)
	}
	if err := plane.Close(); err != nil {
		fatal(err)
	}
}

// buildTrial returns a per-trial cost function for the selected scheme,
// after checking the inputs by the session rules tcastd applies. The tcast
// algorithms run through the session pipeline with the given layers: a
// non-nil registry instruments every group poll, a non-nil builder
// renders each trial as virtual-time spans in its own fork keyed by trial
// index (the caller grafts them back in order), a non-nil collector
// grades every session against the channel's ground truth, an active
// fault config stacks the injector above the channel and an active retry
// policy re-polls silent bins within the priced budget. The CSMA and
// sequential baselines have no group polls to layer: CSMA honors the
// burst process through its drop hook, and sequential polling has no
// contention to fault.
func buildTrial(alg string, n, t, x int, cfg fastsim.Config, fcfg faults.Config, retry query.RetryPolicy, reg *metrics.Registry, b *trace.Builder, sample int, col *audit.Collector, bus *obs.Bus) (func(i int, r *rng.Source) (float64, error), string, error) {
	sp := session.Spec{N: n, T: t, X: x, Collision: cfg, Retry: retry}
	if alg != "csma" && alg != "seq" {
		sp.Alg = alg
	}
	if err := sp.Validate(); err != nil {
		return nil, "", err
	}
	baselineTrial := func(scheme string, run func(n, t int, pos *bitset.Set, r *rng.Source) baseline.Result) func(i int, r *rng.Source) (float64, error) {
		return func(trialN int, r *rng.Source) (float64, error) {
			pos := bitset.New(n)
			for _, id := range r.Split(1).Sample(n, x) {
				pos.Add(id)
			}
			label := fmt.Sprintf("%s/trial=%d", scheme, trialN)
			obs.PublishSessionStart(bus, label, trialN)
			res := run(n, t, pos, r.Split(2))
			obs.PublishDecision(bus, label, trialN, res.Decision, x >= t, 0, int64(res.Slots))
			if b != nil {
				f := b.Fork(trialN)
				sp := f.Begin(trace.KindTrial, "trial "+strconv.Itoa(trialN))
				f.Advance(int64(res.Slots))
				sp.SetAttr(
					trace.StringAttr("substrate", "baseline"),
					trace.StringAttr("scheme", scheme),
					trace.IntAttr("slots", res.Slots),
					trace.IntAttr("delivered", res.Delivered),
					trace.IntAttr("collisions", res.Collisions),
					trace.BoolAttr("decision", res.Decision),
				)
				f.End()
			}
			return float64(res.Slots), nil
		}
	}
	switch alg {
	case "csma":
		if col != nil {
			return nil, "", fmt.Errorf("-audit grades group-poll sessions; csma has none")
		}
		return baselineTrial("csma", func(n, t int, pos *bitset.Set, r *rng.Source) baseline.Result {
			c := baseline.CSMA{}
			if fcfg.Burst.Active() {
				link := faults.NewLink(fcfg.Burst, r.Split(9))
				c.Drop = func(int) bool { return link.Lost() }
			}
			return c.Run(n, t, pos, r)
		}), "CSMA", nil
	case "seq":
		if col != nil {
			return nil, "", fmt.Errorf("-audit grades group-poll sessions; seq has none")
		}
		return baselineTrial("sequential", func(n, t int, pos *bitset.Set, r *rng.Source) baseline.Result {
			return baseline.Sequential{}.Run(n, t, pos, r)
		}), "Sequential", nil
	}
	a, err := session.Algorithm(alg, nil)
	if err != nil {
		return nil, "", err
	}
	name := a.Name()
	sp.Metrics, sp.Audit, sp.Trace, sp.TraceSample, sp.Obs = reg, col, b, sample, bus
	if fcfg.Active() {
		sp.Faults = &fcfg
	}
	pool := &sync.Pool{New: func() any { return new(session.Session) }}
	return func(trialN int, r *rng.Source) (float64, error) {
		s := pool.Get().(*session.Session)
		defer pool.Put(s)
		sp := sp
		sp.Trial, sp.Label = trialN, fmt.Sprintf("%s/trial=%d", name, trialN)
		if err := s.Reset(sp, r); err != nil {
			return 0, err
		}
		res, err := s.Run()
		if err != nil {
			return 0, err
		}
		s.Publish()
		return float64(res.Queries), nil
	}, name, nil
}

// printTrace runs the sweep's trial 0 — the same spec, layers and trial
// stream — with a private span trace and prints its poll-by-poll timeline.
// Baselines have no group polls to trace.
func printTrace(w io.Writer, alg string, n, t, x int, cfg fastsim.Config, fcfg faults.Config, retry query.RetryPolicy, seed uint64) error {
	if _, err := session.Algorithm(alg, nil); err != nil {
		return fmt.Errorf("-dump supports the tcast algorithms, not %q", alg)
	}
	b := trace.NewBuilder()
	trial, _, err := buildTrial(alg, n, t, x, cfg, fcfg, retry, nil, b, 1, nil, nil)
	if err != nil {
		return err
	}
	if _, err := experiment.RunTrials(1, 1, rng.New(seed), trial); err != nil {
		return err
	}
	b.Graft()
	polls := 0
	for _, root := range b.Trace().Roots {
		root.Walk(func(_ int, sp *trace.Span) {
			switch sp.Kind {
			case trace.KindSession:
				decision, _ := sp.Attr("decision")
				queries, _ := sp.Attr("queries")
				fmt.Fprintf(w, "--- trace of one %s session (decision=%s, %s polls) ---\n", sp.Name, decision, queries)
			case trace.KindPoll:
				size, _ := sp.Attr("bin_size")
				kind, _ := sp.Attr("kind")
				fmt.Fprintf(w, "#%-3d |bin|=%-3s -> %s", polls, size, kind)
				if id, ok := sp.Attr("decoded_id"); ok {
					fmt.Fprintf(w, " (node %s)", id)
				}
				fmt.Fprintln(w)
				polls++
			}
		})
	}
	fmt.Fprintln(w, "---")
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tcastsim:", err)
	os.Exit(1)
}
