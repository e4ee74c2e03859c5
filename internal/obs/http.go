package obs

import (
	"encoding/json"
	"net/http"
	"sync/atomic"
	"time"

	"tcast/internal/metrics"
)

// HealthzHandler answers load-balancer-style health probes: 200 "ok"
// while every SLO rule passes (or when no engine is configured), 503
// with the failing rule names otherwise. Status and the failing list are
// derived from one Report snapshot — separate Healthy()/Report() calls
// could interleave with a rule transition and yield a 503 naming zero
// failing rules.
func HealthzHandler(s *SLO) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s == nil {
			w.Write([]byte("ok\n"))
			return
		}
		rep := s.Report()
		if rep.Healthy {
			w.Write([]byte("ok\n"))
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte("failing\n"))
		for _, r := range rep.Rules {
			if !r.Healthy {
				w.Write([]byte(r.Rule + "\n"))
			}
		}
	})
}

// SLOHandler serves the engine's full Report as JSON, folding in the
// sketch sink's cost-distribution snapshot and the SSE drop counter when
// present. With no engine configured it reports vacuous health so the
// endpoint shape is stable.
func SLOHandler(s *SLO, sk *SketchSink, dropped *metrics.Counter) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		rep := Report{Healthy: true}
		if s != nil {
			rep = s.Report()
		}
		if sk != nil {
			snap := sk.Snapshot()
			rep.Sketches = &snap
		}
		if dropped != nil {
			rep.EventsDropped = uint64(dropped.Value())
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(rep)
	})
}

// sseSink buffers bus events toward one /events client. OnEvent never
// blocks the publisher: when the client cannot keep up the event is
// dropped and counted — per client for the in-stream gap reports, and
// on the shared obs_events_dropped_total counter so silent loss shows
// up in the metrics registry and the /slo payload.
type sseSink struct {
	ch      chan Event
	dropped atomic.Uint64
	total   *metrics.Counter // shared cross-client counter, may be nil
}

// sseBuffer is each /events client's event backlog capacity.
const sseBuffer = 256

// OnEvent implements Sink.
func (s *sseSink) OnEvent(e Event) {
	select {
	case s.ch <- e:
	default:
		s.dropped.Add(1)
		if s.total != nil {
			s.total.Inc()
		}
	}
}

// sseTickInterval paces the stream's liveness writes: pending gap
// reports flush and idle connections get a `: keep-alive` comment so
// buffering proxies don't reap them.
const sseTickInterval = 15 * time.Second

// EventsHandler streams bus events as server-sent events: one
// `event: <kind>` / `data: <json>` record per published event, plus
// `event: dropped` records when the client falls behind. Gap reports are
// written both after each delivered event and on a ticker — without the
// ticker, a client that falls behind on a bus that then goes quiet would
// never learn it lost events, because the gap record only rode along
// with the *next* delivery. Idle ticks with no pending gap write a
// `: keep-alive` comment instead. The subscription lasts until the
// client disconnects.
func EventsHandler(b *Bus, dropped *metrics.Counter) http.Handler {
	return eventsHandler(b, dropped, sseTickInterval)
}

// eventsHandler is EventsHandler with the tick interval injectable for
// tests.
func eventsHandler(b *Bus, dropped *metrics.Counter, tick time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sink := &sseSink{ch: make(chan Event, sseBuffer), total: dropped}
		streamSSE(w, r, b, sink, tick)
	})
}

// streamSSE runs one /events subscription over sink until the client
// disconnects. Split from eventsHandler so tests can inject a sink that
// already recorded drops.
func streamSSE(w http.ResponseWriter, r *http.Request, b *Bus, sink *sseSink, tick time.Duration) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	b.Subscribe(sink)
	defer b.Unsubscribe(sink)
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	var reported uint64
	// reportGap writes an `event: dropped` record covering every drop
	// not yet reported; it returns false when the client is gone.
	reportGap := func() bool {
		d := sink.dropped.Load()
		if d <= reported {
			return true
		}
		if _, err := w.Write([]byte("event: dropped\ndata: {\"dropped\":" +
			uintString(d-reported) + "}\n\n")); err != nil {
			return false
		}
		reported = d
		return true
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case e := <-sink.ch:
			line, err := EncodeEvent(e)
			if err != nil {
				continue
			}
			if _, err := w.Write([]byte("event: " + e.Kind.String() + "\ndata: ")); err != nil {
				return
			}
			if _, err := w.Write(line); err != nil {
				return
			}
			if _, err := w.Write([]byte("\n\n")); err != nil {
				return
			}
			if !reportGap() {
				return
			}
			flusher.Flush()
		case <-ticker.C:
			d := sink.dropped.Load()
			if d > reported {
				if !reportGap() {
					return
				}
			} else if _, err := w.Write([]byte(": keep-alive\n\n")); err != nil {
				return
			}
			flusher.Flush()
		}
	}
}

// uintString formats without strconv import churn at call sites.
func uintString(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// NewMux builds the observability endpoint: the metrics registry's
// Prometheus and text dumps plus the plane's health, SLO and event
// streams.
//
//	/metrics       Prometheus exposition of reg
//	/metrics/text  human-readable dump of reg
//	/healthz       SLO pass/fail probe
//	/slo           full SLO report (JSON)
//	/events        live event stream (SSE)
func NewMux(reg *metrics.Registry, p *Plane) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", metrics.Handler(reg))
	mux.Handle("/metrics/text", metrics.TextHandler(reg))
	mux.Handle("/healthz", HealthzHandler(p.SLO()))
	mux.Handle("/slo", SLOHandler(p.SLO(), p.Sketches(), p.EventsDropped()))
	mux.Handle("/events", EventsHandler(p.Bus(), p.EventsDropped()))
	return mux
}

// Serve exposes NewMux at addr on a managed background server, behind
// the cmds' -metrics-addr flag. The returned server carries the bound
// address (so ":0" is testable) and a graceful Shutdown the cmds call on
// exit instead of leaking the listener goroutine.
func Serve(addr string, reg *metrics.Registry, p *Plane) (*metrics.Server, error) {
	return metrics.StartServer(addr, NewMux(reg, p))
}
