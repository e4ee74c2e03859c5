package obs

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tcast/internal/metrics"
)

// failingSLO returns an engine with a blown min-accuracy rule.
func failingSLO(t *testing.T) *SLO {
	t.Helper()
	rules, window, err := ParseRules("minacc=0.5,window=4")
	if err != nil {
		t.Fatal(err)
	}
	s := NewSLO(rules, window, nil)
	s.OnEvent(Event{Kind: KindSessionVerdict, Correct: false})
	s.OnEvent(Event{Kind: KindSessionVerdict, Correct: false})
	if s.Report().Healthy {
		t.Fatal("fixture engine should be failing")
	}
	return s
}

func TestHealthzHandler(t *testing.T) {
	rec := httptest.NewRecorder()
	HealthzHandler(nil).ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK || rec.Body.String() != "ok\n" {
		t.Fatalf("no-engine probe: %d %q", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	HealthzHandler(failingSLO(t)).ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("failing probe status = %d", rec.Code)
	}
	body := rec.Body.String()
	if !strings.HasPrefix(body, "failing\n") || !strings.Contains(body, "min_accuracy") {
		t.Fatalf("failing probe body = %q", body)
	}
}

func TestSLOHandler(t *testing.T) {
	rec := httptest.NewRecorder()
	SLOHandler(nil, nil, nil).ServeHTTP(rec, httptest.NewRequest("GET", "/slo", nil))
	var rep Report
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy || len(rep.Rules) != 0 {
		t.Fatalf("no-engine report = %+v", rep)
	}

	rec = httptest.NewRecorder()
	SLOHandler(failingSLO(t), nil, nil).ServeHTTP(rec, httptest.NewRequest("GET", "/slo", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	rep = Report{}
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Healthy || len(rep.Rules) != 1 || rep.Rules[0].Rule != "min_accuracy" {
		t.Fatalf("failing report = %+v", rep)
	}
	if rep.Rules[0].Violations != 2 || rep.Rules[0].Seen != 2 {
		t.Fatalf("failing rule counts = %+v", rep.Rules[0])
	}
}

func TestEventsHandlerSSE(t *testing.T) {
	bus := NewBus()
	srv := httptest.NewServer(EventsHandler(bus, nil))
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	// The subscription registers when the handler goroutine runs; keep
	// publishing until the stream delivers a record.
	done := make(chan struct{})
	defer close(done)
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				bus.Publish(Event{Kind: KindSessionVerdict, Session: "sse", Trial: 1, Poll: -1, Correct: true, CausalPoll: -1})
				time.Sleep(5 * time.Millisecond)
			}
		}
	}()

	type lineResult struct {
		event string
		data  string
		err   error
	}
	lines := make(chan lineResult, 1)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		var event string
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				lines <- lineResult{event, strings.TrimPrefix(line, "data: "), nil}
				return
			}
		}
		lines <- lineResult{err: sc.Err()}
	}()

	select {
	case got := <-lines:
		if got.err != nil {
			t.Fatal(got.err)
		}
		if got.event != "session_verdict" {
			t.Fatalf("sse event type %q", got.event)
		}
		var w wireEvent
		if err := json.Unmarshal([]byte(got.data), &w); err != nil {
			t.Fatalf("sse data %q: %v", got.data, err)
		}
		if w.Kind != "session_verdict" || w.Session != "sse" || !w.Correct {
			t.Fatalf("sse payload = %+v", w)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no SSE record within 5s")
	}
}

func TestNewMuxRoutes(t *testing.T) {
	reg := metrics.New()
	reg.Counter("polls_total", "kind", "empty").Add(3)
	mux := NewMux(reg, &Plane{bus: NewBus(), slo: failingSLO(t), dropped: reg.Counter(MetricEventsDropped)})

	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}

	if rec := get("/metrics"); rec.Code != http.StatusOK ||
		!strings.Contains(rec.Body.String(), `polls_total{kind="empty"} 3`) ||
		!strings.Contains(rec.Body.String(), "# TYPE polls_total counter") {
		t.Fatalf("/metrics: %d\n%s", rec.Code, rec.Body.String())
	}
	if rec := get("/metrics/text"); rec.Code != http.StatusOK ||
		!strings.Contains(rec.Body.String(), `polls_total{kind="empty"} 3`) {
		t.Fatalf("/metrics/text: %d\n%s", rec.Code, rec.Body.String())
	}
	if rec := get("/healthz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz: %d", rec.Code)
	}
	if rec := get("/slo"); rec.Code != http.StatusOK ||
		!strings.Contains(rec.Body.String(), "min_accuracy") {
		t.Fatalf("/slo: %d\n%s", rec.Code, rec.Body.String())
	}
}

// TestEventsTickerKeepAlive verifies an idle stream emits `: keep-alive`
// comments on the ticker, so buffering proxies don't reap quiet
// subscriptions.
func TestEventsTickerKeepAlive(t *testing.T) {
	bus := NewBus()
	srv := httptest.NewServer(eventsHandler(bus, nil, 10*time.Millisecond))
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	got := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if line := sc.Text(); line != "" {
				got <- line
				return
			}
		}
	}()
	select {
	case line := <-got:
		if line != ": keep-alive" {
			t.Fatalf("first idle line = %q, want keep-alive comment", line)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no keep-alive on an idle stream")
	}
}

// TestEventsTickerGapReport verifies a client that fell behind on a bus
// that then went quiet still learns it lost events: the gap record is
// pushed on the ticker, not only after the next delivery.
func TestEventsTickerGapReport(t *testing.T) {
	bus := NewBus()
	sink := &sseSink{ch: make(chan Event, sseBuffer)}
	// The backlog overflowed before the stream started and the bus is now
	// quiet — the pre-ticker handler would never report these drops.
	sink.dropped.Store(7)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		streamSSE(w, r, bus, sink, 10*time.Millisecond)
	}))
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	type record struct{ event, data string }
	got := make(chan record, 1)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		var event string
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				got <- record{event, strings.TrimPrefix(line, "data: ")}
				return
			}
		}
	}()
	select {
	case rec := <-got:
		if rec.event != "dropped" || rec.data != `{"dropped":7}` {
			t.Fatalf("gap record = %+v", rec)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no gap report on a quiet bus")
	}
}
