package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tcast/internal/metrics"
	"tcast/internal/obs"
	"tcast/internal/rng"
	"tcast/internal/serve"
)

// Latency limits of goodput: a served query counts only if its verdict
// arrives within the limit.
const (
	httpLimitMS      = 5
	contendedLimitMS = 20
)

// The closed loops: serve-http keeps nproc keep-alive connections busy;
// serve-contended keeps contendedWindow sessions in flight, spread over
// contendedClients client IDs so that the per-client cap (32) never binds.
// A finished session returns its admission slot only when its goroutine
// runs again after Done(), so a client's count lags its real in-flight
// sessions. A loop that held 34 sessions in flight was shed twice in 121k
// sessions on a 2-vCPU host, so the window is 16.
const (
	contendedWindow  = 16
	contendedClients = 4
	// segmentLen is the stretch of a serve loop between two runs of the
	// host-speed reference. Each segment is scaled by the reference run
	// before it, and the metrics are medians over segments.
	segmentLen = 250 * time.Millisecond
	// warmupShare of the measured time is spent warming up first.
	warmupShare = 0.1
	// serveSetups is how many daemons (serve-http) or pools
	// (serve-contended) set-up starts; set-up is reported as the median.
	serveSetups = 9
	// contendedWarmup sessions run through each set-up pool.
	contendedWarmup = 1000
)

// The serve traffic is built from the specs the repository itself sends
// tcastd. Its defaults and tcastbench's serve-2tbins trio send 2tBins with
// n=128, t=16, x=16 and model 1+; scripts/serve-smoke.sh sends the same
// with x=20, audited. No source measures a real mix, so the two knobs
// below are assumptions, not a model of production traffic.
const (
	mixN, mixT = 128, 16
	// mixSpread: x is uniform on [t-mixSpread, t+mixSpread]. That holds
	// both x values the repository sends (t and t+4) and mirrors them below
	// t, so both verdicts occur.
	mixSpread = 4
	// auditShare of the requests are audited, as serve-smoke's are and the
	// default spec's are not.
	auditShare = 0.5
)

// specGen draws the serve workloads' specs from the seed. The program sees
// only the generated specs. Every spec is lossless (no faults), so every
// verdict must be correct.
type specGen struct {
	mu    sync.Mutex
	r     *rng.Source
	seed  uint64
	trial int
}

func newSpecGen(seed uint64) *specGen { return &specGen{r: rng.New(seed).Split(7), seed: seed} }

func (g *specGen) next() serve.Spec {
	g.mu.Lock()
	defer g.mu.Unlock()
	sp := serve.Spec{N: mixN, T: mixT, Alg: "2tbins", Model: "1+", Seed: g.seed, Trial: g.trial, Field: -1}
	g.trial++
	sp.X = mixT - mixSpread + g.r.Intn(2*mixSpread+1)
	sp.Audit = g.r.Float64() < auditShare
	return sp
}

// segment is one stretch of a serve loop: its latencies in ms as measured,
// its length, and the host-speed factor of the reference run before it.
type segment struct {
	scale   float64
	lat     latencies
	elapsed time.Duration
}

// serveLog collects a serve loop's completions, segment by segment, with
// every operation also in one log and sheds counted by reason.
type serveLog struct {
	mu      sync.Mutex
	ops     opLog
	segs    []segment
	shed    map[string]int
	limitMS float64
}

func newServeLog(limitMS float64) *serveLog {
	return &serveLog{shed: map[string]int{}, limitMS: limitMS}
}

// segments runs loop in segments of segmentLen until measure is spent,
// each after a run of the host-speed reference. loop must return once its
// deadline has passed and every operation it started has been added.
func (l *serveLog) segments(c *child, measure time.Duration, loop func(deadline time.Time)) error {
	for start := time.Now(); time.Since(start) < measure; {
		f, err := c.scale()
		if err != nil {
			return err
		}
		l.segs = append(l.segs, segment{scale: f})
		t0 := time.Now()
		loop(t0.Add(segmentLen))
		l.segs[len(l.segs)-1].elapsed = time.Since(t0)
	}
	return nil
}

func (l *serveLog) add(d time.Duration, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ms := l.ops.add(d, ok)
	if n := len(l.segs); n > 0 {
		l.segs[n-1].lat = append(l.segs[n-1].lat, ms)
	}
}

func (l *serveLog) addShed(reason string) {
	l.mu.Lock()
	l.shed[reason]++
	l.mu.Unlock()
	l.add(0, false)
}

// emitServe reports a serve loop: wall_s is the time to complete 1000
// queries and the percentiles are each segment's, all scaled to the
// nominal host speed, and each metric is the median over segments.
func (c *child) emitServe(l *serveLog, measured time.Duration) {
	var wall, p50, p99 []float64
	for _, s := range l.segs {
		if len(s.lat) == 0 {
			continue
		}
		wall = append(wall, s.scale*s.elapsed.Seconds()*1000/float64(len(s.lat)))
		p50 = append(p50, s.scale*s.lat.percentile(0.50))
		p99 = append(p99, s.scale*s.lat.percentile(0.99))
	}
	c.emit(&l.ops, median(wall), median(p50), median(p99), measured)
	c.rep.note("%d segments; unscaled over every query: p50 %.4g ms, p99 %.4g ms", len(wall), l.ops.lat.percentile(0.50), l.ops.lat.percentile(0.99))
	goodput := float64(l.ops.lat.within(l.limitMS)) / measured.Seconds()
	c.rep.note("goodput %.5g q/s within %g ms, unscaled (not gated: with every verdict inside the limit it is close to 1000 / wall_s)", goodput, l.limitMS)
	c.rep.note("sheds: queue=%d client=%d draining=%d", l.shed["queue"], l.shed["client"], l.shed["draining"])
}

// newPool builds an in-process pool with the configuration tcastd ships:
// its default bounds, a metrics registry and an obs bus.
func newPool() (*serve.Pool, *metrics.Registry, error) {
	reg := metrics.New()
	plane, err := obs.Config{}.Build(io.Discard, reg, true)
	if err != nil {
		return nil, nil, err
	}
	p := serve.NewPool(serve.Config{
		Fields: 1, MaxActive: 64, MaxQueue: 128, MaxPerClient: 32, MaxHistory: 4096,
		Registry: reg, Bus: plane.Bus(),
	})
	return p, reg, nil
}

func drain(p *serve.Pool) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return p.Drain(ctx)
}

// contendedResult is one session of the contended loop.
type contendedResult struct {
	submit time.Duration
	s      *serve.Session
	err    error
}

// contendedLoop keeps window sessions in flight on p: one generator
// goroutine takes a slot before each Submit, one collector (the caller's
// goroutine) waits on Done() in submission order and frees the slot once
// it has handled the session. It stops submitting once stop reports true
// and returns after the last session.
func contendedLoop(p *serve.Pool, gen *specGen, window int, stop func() bool, done func(contendedResult)) {
	slots := make(chan struct{}, window)
	inflight := make(chan contendedResult, window)
	go func() {
		defer close(inflight)
		for i := 0; !stop(); i++ {
			slots <- struct{}{}
			spec := gen.next()
			t0 := time.Now()
			s, err := p.Submit(spec, fmt.Sprintf("bench-%d", i%contendedClients))
			inflight <- contendedResult{submit: time.Since(t0), s: s, err: err}
		}
	}()
	for r := range inflight {
		if r.err == nil {
			<-r.s.Done()
		}
		done(r)
		<-slots
	}
}

// shedReason classifies a refused submission.
func shedReason(err error) string {
	var over *serve.OverloadError
	switch {
	case errors.As(err, &over) && strings.Contains(over.Reason, "queue"):
		return "queue"
	case errors.As(err, &over):
		return "client"
	case errors.Is(err, serve.ErrDraining):
		return "draining"
	}
	return ""
}

// sessionOK reports whether a finished session answered correctly.
func sessionOK(s *serve.Session) bool {
	res, err := s.Result()
	return err == nil && res != nil && res.Correct
}

// runServeContended is the serve-contended workload: the serve scheduler at
// contendedWindow sessions in flight, with no HTTP. Set-up is pool
// construction plus a fixed warm-up; latency is the server-side
// Session.Wall().
func runServeContended(c *child) error {
	c.ready()
	gen := newSpecGen(c.opts.seed)
	var p *serve.Pool
	for k := 0; k < serveSetups; k++ {
		if p != nil {
			if err := drain(p); err != nil {
				return err
			}
		}
		f, err := c.scale()
		if err != nil {
			return err
		}
		start := time.Now()
		if p, _, err = newPool(); err != nil {
			return err
		}
		var n atomic.Int64
		warm := int64(warmupOps(c.opts.short))
		contendedLoop(p, gen, contendedWindow, func() bool { return n.Load() >= warm }, func(contendedResult) { n.Add(1) })
		c.rep.Setup = append(c.rep.Setup, f*time.Since(start).Seconds())
	}
	log := newServeLog(contendedLimitMS)
	start := time.Now()
	err := log.segments(c, c.measure(), func(deadline time.Time) {
		contendedLoop(p, gen, contendedWindow, func() bool { return time.Now().After(deadline) }, func(r contendedResult) {
			if r.err != nil {
				if reason := shedReason(r.err); reason != "" {
					log.addShed(reason)
					return
				}
				log.add(0, false)
				return
			}
			log.add(r.s.Wall(), sessionOK(r.s))
		})
	})
	measured := time.Since(start)
	if err := errors.Join(err, drain(p)); err != nil {
		return err
	}
	c.emitServe(log, measured)
	return nil
}

func warmupOps(short bool) int {
	if short {
		return contendedWarmup / 10
	}
	return contendedWarmup
}

// wireRequest is the POST /query body.
type wireRequest struct {
	Client string `json:"client"`
	N      int    `json:"n"`
	T      int    `json:"t"`
	X      int    `json:"x"`
	Alg    string `json:"alg"`
	Model  string `json:"model"`
	Seed   uint64 `json:"seed"`
	Trial  int    `json:"trial"`
	Audit  bool   `json:"audit,omitempty"`
}

// httpResult is one request of the HTTP loop.
type httpResult struct {
	rtt    time.Duration
	status serve.Status
	code   int
	body   string
	err    error
}

// ok reports whether the request returned a correct verdict.
func (r httpResult) ok() bool {
	return r.err == nil && r.code == http.StatusOK && r.status.Result != nil && r.status.Result.Correct
}

// shed classifies a refused request by its status and error text.
func (r httpResult) shed() string {
	switch {
	case r.code == http.StatusServiceUnavailable:
		return "draining"
	case r.code == http.StatusTooManyRequests && strings.Contains(r.body, "queue"):
		return "queue"
	case r.code == http.StatusTooManyRequests:
		return "client"
	}
	return ""
}

// newHTTPClient returns a client that keeps conns connections alive to one
// host. The caller closes its idle connections when done.
func newHTTPClient(conns int) *http.Client {
	tr := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true}
	return &http.Client{Transport: tr, Timeout: 30 * time.Second}
}

// httpLoop is the closed loop against tcastd: conns goroutines, each on
// one of client's keep-alive connections, send POST /query?wait=1 back to
// back until the deadline.
func httpLoop(client *http.Client, base string, gen *specGen, conns int, deadline time.Time, done func(httpResult)) {
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				done(post(client, base, fmt.Sprintf("bench-%d", i), gen.next()))
			}
		}(i)
	}
	wg.Wait()
}

func post(client *http.Client, base, id string, sp serve.Spec) httpResult {
	body, err := json.Marshal(wireRequest{Client: id, N: sp.N, T: sp.T, X: sp.X, Alg: sp.Alg,
		Model: sp.Model, Seed: sp.Seed, Trial: sp.Trial, Audit: sp.Audit})
	if err != nil {
		return httpResult{err: err}
	}
	start := time.Now()
	resp, err := client.Post(base+"/query?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return httpResult{err: err}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r := httpResult{rtt: time.Since(start), code: resp.StatusCode, err: err}
	if err == nil && resp.StatusCode == http.StatusOK {
		r.err = json.Unmarshal(data, &r.status)
	} else {
		r.body = string(data)
	}
	return r
}

// daemon is one running tcastd.
type daemon struct {
	cmd  *exec.Cmd
	base string
}

// buildTcastd builds cmd/tcastd into dir.
func buildTcastd(root, dir string) (string, time.Duration, error) {
	bin := filepath.Join(dir, "tcastd")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/tcastd")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", 0, fmt.Errorf("building tcastd: %w", err)
	}
	return bin, time.Since(start), nil
}

// startDaemon starts tcastd at its shipped defaults on an ephemeral
// loopback port and returns once /healthz answers 200, with the time that
// took.
func startDaemon(bin, dir string, i int) (*daemon, time.Duration, error) {
	addrFile := filepath.Join(dir, fmt.Sprintf("tcastd-%d.addr", i))
	start := time.Now()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-addr-file", addrFile)
	cmd.Stdout, cmd.Stderr = io.Discard, os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd}
	for d.base == "" {
		if data, err := os.ReadFile(addrFile); err == nil && strings.HasSuffix(string(data), "\n") {
			d.base = "http://" + strings.TrimSpace(string(data))
			break
		}
		if time.Since(start) > 30*time.Second {
			d.stop()
			return nil, 0, errors.New("tcastd wrote no address within 30s")
		}
		time.Sleep(100 * time.Microsecond)
	}
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		if time.Since(start) > 30*time.Second {
			d.stop()
			return nil, 0, fmt.Errorf("tcastd /healthz not ready within 30s: %v", err)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// stop drains tcastd with SIGTERM, waits for it and returns its rusage.
func (d *daemon) stop() (*syscall.Rusage, error) {
	// A daemon that already exited cannot be signalled; Wait reports why.
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	if err := d.cmd.Wait(); err != nil && !killedBySIGTERM(d.cmd.ProcessState) {
		return nil, fmt.Errorf("tcastd: %w", err)
	}
	ru, _ := d.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if ru == nil {
		return nil, errors.New("tcastd: no rusage")
	}
	return ru, nil
}

// killedBySIGTERM reports whether the process died of SIGTERM. tcastd
// answers /healthz before it installs its signal handler, so a daemon
// stopped right after start-up can die of the signal instead of draining;
// with no session submitted yet, that is still a clean stop.
func killedBySIGTERM(ps *os.ProcessState) bool {
	if ps == nil {
		return false
	}
	ws, ok := ps.Sys().(syscall.WaitStatus)
	return ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM
}

func cpuSeconds(ru *syscall.Rusage) float64 {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// selfCPU is this process's CPU time so far.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return cpuSeconds(&ru)
}

// serveHTTPDir builds tcastd into a fresh directory under .bench_build and
// returns it with the binary's path.
func serveHTTPDir(c *child) (string, string, error) {
	parent := filepath.Join(c.root, ".bench_build")
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", "", err
	}
	dir, err := os.MkdirTemp(parent, "tcastd-")
	if err != nil {
		return "", "", err
	}
	bin, took, err := buildTcastd(c.root, dir)
	if err != nil {
		os.RemoveAll(dir)
		return "", "", err
	}
	c.rep.note("tcastd build %.2fs (excluded from every metric)", took.Seconds())
	return dir, bin, nil
}

// runServeHTTP is the serve-http workload: tcastd at its shipped defaults,
// driven over loopback by a closed loop of nproc keep-alive connections.
// Set-up is exec until the first 200 from /healthz; latency is the
// client's clock from send to verdict received; peak RSS is tcastd's.
func runServeHTTP(c *child) error {
	c.ready()
	dir, bin, err := serveHTTPDir(c)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	d, err := startDaemons(c, bin, dir)
	if err != nil {
		return err
	}
	gen := newSpecGen(c.opts.seed)
	conns := runtime.NumCPU()
	client := newHTTPClient(conns)
	defer client.CloseIdleConnections()
	httpLoop(client, d.base, gen, conns, time.Now().Add(time.Duration(warmupShare*float64(c.measure()))), func(httpResult) {})
	log := newServeLog(httpLimitMS)
	start := time.Now()
	cpu0 := selfCPU()
	loopErr := log.segments(c, c.measure(), func(deadline time.Time) {
		httpLoop(client, d.base, gen, conns, deadline, func(r httpResult) {
			if reason := r.shed(); reason != "" {
				log.addShed(reason)
				return
			}
			if !r.ok() {
				c.progress("FAIL request: code %d err %v %s", r.code, r.err, r.body)
			}
			log.add(r.rtt, r.ok())
		})
	})
	measured := time.Since(start)
	loadCPU := selfCPU() - cpu0
	ru, err := d.stop()
	if err := errors.Join(loopErr, err); err != nil {
		return err
	}
	c.rep.RSSMB = float64(ru.Maxrss) / 1024
	c.emitServe(log, measured)
	c.rep.note("%d connections; generator CPU %.2fs, tcastd CPU %.2fs over the whole run", conns, loadCPU, cpuSeconds(ru))
	return nil
}

// startDaemons starts tcastd serveSetups times, each after a run of the
// host-speed reference, records each scaled start-up time as a set-up
// sample, and returns the last daemon still running. The caller owns it:
// on every path after a successful return it must stop it.
func startDaemons(c *child, bin, dir string) (*daemon, error) {
	for k := 0; ; k++ {
		f, err := c.scale()
		if err != nil {
			return nil, err
		}
		d, took, err := startDaemon(bin, dir, k)
		if err != nil {
			return nil, err
		}
		c.rep.Setup = append(c.rep.Setup, f*took.Seconds())
		if k == serveSetups-1 {
			return d, nil
		}
		if _, err := d.stop(); err != nil {
			return nil, err
		}
	}
}
