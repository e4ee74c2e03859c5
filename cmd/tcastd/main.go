// Command tcastd serves threshold queries over HTTP: a long-running
// daemon multiplexing many concurrent initiators over a pool of shared
// simulated fields, with deterministic virtual-slot contention pricing,
// per-client admission control and graceful overload shedding.
//
// Usage:
//
//	tcastd                              # serve on :8080, one field
//	tcastd -addr :9000 -fields 4        # four independent media
//	tcastd -addr 127.0.0.1:0 -addr-file tcastd.addr   # CI: ephemeral port
//
// Wire API (see README "Serving threshold queries"):
//
//	POST /query             submit a session ({"n":128,"t":16,"x":20,
//	                        "alg":"2tbins","seed":7}); 202 + session id,
//	                        or add ?wait=1 to block for the verdict;
//	                        429 + Retry-After when shed, 503 draining
//	GET  /query/{id}        session status + result
//	GET  /query/{id}/events SSE: status now, verdict at completion
//	GET  /fields            per-field slot clock and occupancy
//	/metrics /healthz /slo /events   the obs plane (shared bus)
//
// Admission knobs: -max-active sessions are scheduled per field,
// -max-queue more wait, beyond that submissions are shed with 429;
// -max-per-client bounds one client's in-flight sessions. SIGINT or
// SIGTERM drains: no new admissions, in-flight sessions finish (up to
// -drain-timeout), then the listener closes.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tcast/internal/metrics"
	"tcast/internal/obs"
	"tcast/internal/serve"
	"tcast/internal/session"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "HTTP listen address (host:0 picks an ephemeral port; see -addr-file)")
		addrFile     = flag.String("addr-file", "", "write the bound address to this file once listening (for :0 in scripts)")
		fields       = flag.Int("fields", 1, "shared-medium fields in the pool; sessions contend only within their field")
		maxActive    = flag.Int("max-active", 64, "sessions concurrently scheduled per field")
		maxQueue     = flag.Int("max-queue", 128, "sessions queued per field beyond -max-active before shedding with 429")
		maxPerClient = flag.Int("max-per-client", 32, "one client's in-flight session bound")
		maxHistory   = flag.Int("max-history", 4096, "finished sessions kept for GET /query/{id}")
		maxN         = flag.Int("max-n", 1<<20, "largest field size a request may ask for")
		n            = flag.Int("n", 128, "default field size when the request omits n")
		t            = flag.Int("t", 16, "default threshold when the request omits t")
		x            = flag.Int("x", 16, "default positive count when the request omits x")
		alg          = flag.String("alg", "2tbins", "default algorithm: "+strings.Join(session.Algorithms(), " | "))
		model        = flag.String("model", "1+", "default channel model: 1+ | 2+")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "bound on waiting for in-flight sessions at shutdown")
	)
	var obsCfg obs.Config
	obsCfg.RegisterFlags(flag.CommandLine)
	flag.Parse()

	if err := run(*addr, *addrFile, serve.Config{
		Fields:       *fields,
		MaxActive:    *maxActive,
		MaxQueue:     *maxQueue,
		MaxPerClient: *maxPerClient,
		MaxHistory:   *maxHistory,
		MaxN:         *maxN,
		Defaults:     serve.Spec{N: *n, T: *t, X: *x, Alg: *alg, Model: *model},
	}, obsCfg, *drainTimeout); err != nil {
		fmt.Fprintln(os.Stderr, "tcastd:", err)
		os.Exit(1)
	}
}

func run(addr, addrFile string, cfg serve.Config, obsCfg obs.Config, drainTimeout time.Duration) error {
	reg := metrics.New()
	// force: the daemon always carries a bus so /events, /slo and the
	// session verdict stream work without any -log/-slo flag.
	plane, err := obsCfg.Build(os.Stderr, reg, true)
	if err != nil {
		return err
	}
	cfg.Registry = reg
	cfg.Bus = plane.Bus()
	pool := serve.NewPool(cfg)

	// Catch SIGTERM/SIGINT before the listener opens: a daemon signalled
	// the moment it answers /healthz (or writes -addr-file) must drain,
	// not die of the signal's default action.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	mux := obs.NewMux(reg, plane)
	serve.Register(mux, pool)
	srv, err := metrics.StartServer(addr, mux)
	if err != nil {
		return err
	}
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(srv.Addr()+"\n"), 0o644); err != nil {
			srv.Shutdown(context.Background())
			return err
		}
	}
	fmt.Printf("tcastd: listening on %s (%d field(s), %d active + %d queued per field)\n",
		srv.Addr(), cfg.Fields, cfg.MaxActive, cfg.MaxQueue)

	select {
	case s := <-sig:
		fmt.Printf("tcastd: %s, draining (%d in flight)\n", s, pool.InFlight())
	case err := <-srv.Err():
		return fmt.Errorf("serve: %w", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := pool.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "tcastd:", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "tcastd: shutdown:", err)
	}
	if sum := plane.Summary(); sum != "" {
		fmt.Print(sum)
	}
	if err := plane.Close(); err != nil {
		return err
	}
	fmt.Printf("tcastd: drained, served %d session(s)\n", served(pool))
	return nil
}

// served totals completed sessions across the pool's fields.
func served(p *serve.Pool) int64 {
	var total int64
	for _, f := range p.Fields() {
		total += f.Served()
	}
	return total
}
