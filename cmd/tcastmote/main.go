// Command tcastmote exposes an emulated testbed over TCP using the serial
// wire protocol — the shape a hardware-in-the-loop setup would take, with
// the emulator standing in for a TelosB behind a serial-forwarder.
//
// Serve an initiator (with its participant motes emulated in-process):
//
//	tcastmote -serve 127.0.0.1:7777 -participants 12 -miss 0.05
//
// Then drive it from another terminal as the controller:
//
//	tcastmote -connect 127.0.0.1:7777 -t 4 -x 6 -runs 20
//
// The controller configures x random positives, stimulates queries over
// the wire, and prints the graded results.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"tcast/internal/audit"
	"tcast/internal/faults"
	"tcast/internal/metrics"
	"tcast/internal/mote"
	"tcast/internal/obs"
	"tcast/internal/radio"
	"tcast/internal/rng"
	"tcast/internal/serial"
	"tcast/internal/trace"
)

func main() {
	var (
		serve        = flag.String("serve", "", "listen address for the emulated initiator (serve mode)")
		connect      = flag.String("connect", "", "initiator address to drive (controller mode)")
		participants = flag.Int("participants", 12, "participant motes (serve mode)")
		miss         = flag.Float64("miss", 0.05, "per-HACK-copy loss probability (serve mode)")
		threshold    = flag.Int("t", 4, "threshold (controller mode)")
		x            = flag.Int("x", 6, "positives to configure; serve mode honors them via -autoconfig")
		runs         = flag.Int("runs", 20, "queries to run (controller mode)")
		seed         = flag.Uint64("seed", 2011, "random seed")
		timeout      = flag.Duration("timeout", 10*time.Second, "controller mode: per-command reply deadline; 0 waits forever")
		faultsSpec   = flag.String("faults", "", "serve mode: fault-injection spec for the emulated radio, e.g. burst=8,frac=0.2,churn=0.01")

		doAudit    = flag.Bool("audit", false, "controller mode: grade each decision against the configured -x truth (the wire protocol carries no polls, so wrong decisions stay unattributed)")
		traceOut   = flag.String("trace", "", "controller mode: write a structured span trace (JSONL, virtual time) of the runs to this file")
		metricsOut = flag.String("metrics", "", "controller mode: dump session metrics to this file at exit ('-' = stdout, .prom = Prometheus format)")
		pprofDir   = flag.String("pprof", "", "write cpu/heap/goroutine/mutex/block profiles into this directory")
	)
	var obsCfg obs.Config
	obsCfg.RegisterFlags(flag.CommandLine)
	flag.Parse()

	if *pprofDir != "" {
		stop, err := metrics.StartProfiles(*pprofDir)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(os.Stderr, "tcastmote: pprof:", err)
			}
		}()
	}

	switch {
	case *serve != "" && *connect == "":
		fcfg, err := faults.ParseSpec(*faultsSpec)
		if err != nil {
			fatal(err)
		}
		if err := runServer(*serve, *participants, *miss, *x, *seed, fcfg); err != nil {
			fatal(err)
		}
	case *connect != "" && *serve == "":
		truth := (*bool)(nil)
		if *doAudit {
			v := *x >= *threshold
			truth = &v
		}
		if err := runController(*connect, *threshold, *runs, *timeout, *metricsOut, *traceOut, truth, obsCfg); err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("pass exactly one of -serve or -connect"))
	}
}

// runServer boots the emulated testbed, configures x random positives
// locally (the remote protocol only reaches the initiator here), and
// serves its serial interface to one controller at a time. A non-empty
// fault config interposes the packet-level fault layer between the motes
// and the medium, so the served testbed exhibits bursty loss, churn and
// skew on top of the i.i.d. -miss model.
func runServer(addr string, participants int, miss float64, x int, seed uint64, fcfg faults.Config) error {
	if x < 0 || x > participants {
		return fmt.Errorf("x=%d outside [0,%d]", x, participants)
	}
	// rng.Bernoulli clamps, so an out-of-range miss would silently run a
	// lossless or all-losing radio; NaN fails both comparisons.
	if !(miss >= 0 && miss <= 1) {
		return fmt.Errorf("-miss %v outside [0, 1]", miss)
	}
	root := rng.New(seed)
	var med radio.Channel = radio.NewMedium(radio.Config{MissProb: miss}, root.Split(1))
	if fcfg.Active() {
		med = faults.NewMedium(med, fcfg, participants, root.Split(9))
	}
	parts := make([]*mote.Participant, participants)
	for i := range parts {
		parts[i] = mote.NewParticipant(i)
	}
	for _, id := range root.Split(3).Sample(participants, x) {
		parts[id].Configure(true)
	}
	ini := mote.NewInitiator(1<<16, med, parts, root.Split(2))

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	fmt.Printf("emulated initiator on %s: %d participants (%d positive), miss=%.3f\n",
		ln.Addr(), participants, x, miss)
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		fmt.Println("controller connected:", conn.RemoteAddr())
		if err := serial.ServeInitiator(conn, ini); err != nil {
			fmt.Fprintln(os.Stderr, "session error:", err)
		}
		conn.Close()
		fmt.Println("controller disconnected")
	}
}

// runController drives the remote initiator: configure, query repeatedly,
// summarize. With metricsOut set it additionally records per-run
// query/round totals into a registry and dumps it at the end — the
// controller cannot see individual polls over the wire protocol, only the
// session totals the initiator reports. With traceOut set it renders each
// run as a session span at backcast cost (3 RCD slots per group query).
// With truth non-nil it grades every decision against that expected
// answer; lacking polls, wrong decisions are counted but unattributed.
// A positive timeout bounds every wire round trip: a mote that stops
// replying fails the run (voided in the audit accounting) instead of
// hanging the controller forever.
func runController(addr string, threshold, runs int, timeout time.Duration, metricsOut, traceOut string, truth *bool, obsCfg obs.Config) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	c := serial.NewClient(conn)
	c.Timeout = timeout

	var reg *metrics.Registry
	if metricsOut != "" || obsCfg.Enabled() {
		reg = metrics.New()
	}
	plane, err := obsCfg.Build(os.Stderr, reg, false)
	if err != nil {
		return err
	}
	bus := plane.Bus()
	var builder *trace.Builder
	if traceOut != "" {
		builder = trace.NewBuilder()
		builder.SetMeta(
			trace.StringAttr("cmd", "tcastmote"),
			trace.IntAttr("t", threshold),
			trace.IntAttr("runs", runs),
		)
		builder.Begin(trace.KindExperiment, "tcastmote controller")
	}
	if err := c.ConfigureInitiator(threshold); err != nil {
		return err
	}
	var col *audit.Collector
	if truth != nil {
		col = &audit.Collector{}
	}
	trueCount, totalQueries := 0, 0
	for i := 0; i < runs; i++ {
		obs.PublishSessionStart(bus, fmt.Sprintf("run=%d", i+1), i)
		decision, queries, rounds, err := c.Query()
		if err != nil {
			if col != nil {
				// The session died mid-run: void it so the audit
				// accounting distinguishes "never decided" from wrong,
				// and still print the grades of the runs that finished.
				col.Void(fmt.Sprintf("run=%d", i+1))
				fmt.Print(col.Summary())
			}
			return fmt.Errorf("run %d: %w", i+1, err)
		}
		totalQueries += queries
		if decision {
			trueCount++
		}
		if reg != nil {
			reg.Counter(metrics.MetricSessions).Inc()
			reg.Counter("tcast_decisions_total", "decision", fmt.Sprint(decision)).Inc()
			reg.Histogram(metrics.MetricSessionPolls, metrics.SessionBuckets).Observe(float64(queries))
			reg.Histogram("tcast_session_rounds", metrics.SessionBuckets).Observe(float64(rounds))
		}
		if builder != nil {
			sp := builder.Begin(trace.KindSession, fmt.Sprintf("run %d", i))
			builder.Advance(3 * int64(queries))
			sp.SetAttr(
				trace.StringAttr("substrate", "serial"),
				trace.StringAttr("primitive", "backcast"),
				trace.IntAttr("t", threshold),
				trace.BoolAttr("decision", decision),
				trace.IntAttr("queries", queries),
				trace.IntAttr("rounds", rounds),
			)
			builder.End()
		}
		if col != nil {
			col.AddDecision(fmt.Sprintf("run=%d", i+1), decision, *truth)
		}
		if bus != nil {
			label := fmt.Sprintf("run=%d", i+1)
			if truth != nil {
				// The wire protocol carries no polls, so a wrong decision's
				// anomaly stays unattributed (no causal poll to name).
				obs.PublishDecision(bus, label, i, decision, *truth, queries, 3*int64(queries))
			} else {
				// No configured truth to grade against; publish the session
				// close ungraded (neutral for min-accuracy SLO rules).
				bus.Publish(obs.Event{
					Kind: obs.KindSessionVerdict, Session: label, Trial: i, Poll: -1,
					Outcome: "ungraded", Correct: true,
					Polls: queries, Slots: 3 * int64(queries), CausalPoll: -1,
				})
			}
		}
		fmt.Printf("run %2d: decision=%-5v queries=%-3d rounds=%d\n", i+1, decision, queries, rounds)
	}
	fmt.Printf("\n%d/%d runs answered true (t=%d); %.1f queries per run\n",
		trueCount, runs, threshold, float64(totalQueries)/float64(runs))
	if col != nil {
		fmt.Print(col.Summary())
	}
	if builder != nil {
		if err := trace.WriteFile(traceOut, builder.Trace()); err != nil {
			return err
		}
	}
	if metricsOut != "" {
		if err := metrics.DumpToPath(reg, metricsOut); err != nil {
			return err
		}
	}
	if s := plane.Summary(); s != "" {
		fmt.Fprint(os.Stderr, s)
	}
	return plane.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tcastmote:", err)
	os.Exit(1)
}
