package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// postQuery submits a request body and decodes the status payload.
func postQuery(t *testing.T, ts *httptest.Server, path, body string) (int, Status, http.Header) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("decode %q: %v", raw, err)
		}
	}
	return resp.StatusCode, st, resp.Header
}

// TestHTTPQueryLifecycle drives the wire API end to end: submit, poll,
// stream, and the defaulting of absent request fields.
func TestHTTPQueryLifecycle(t *testing.T) {
	p := NewPool(Config{Defaults: Spec{N: 128, T: 16, X: 16, Alg: "2tbins", Model: "1+"}})
	defer drain(t, p)
	mux := http.NewServeMux()
	Register(mux, p)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	// Synchronous submit: ?wait=1 returns the final status.
	code, st, _ := postQuery(t, ts, "/query?wait=1", `{"n":128,"t":16,"x":20,"seed":7,"audit":true}`)
	if code != http.StatusOK {
		t.Fatalf("wait submit: status %d", code)
	}
	if st.State != "done" || st.Result == nil || !st.Result.Correct {
		t.Fatalf("wait submit: %+v", st)
	}

	// Async submit: 202 + Location, then GET until terminal.
	code, st, hdr := postQuery(t, ts, "/query", `{"x":20,"seed":8}`)
	if code != http.StatusAccepted {
		t.Fatalf("async submit: status %d", code)
	}
	if hdr.Get("Location") != "/query/"+st.ID {
		t.Fatalf("Location = %q", hdr.Get("Location"))
	}
	if st.Spec.N != 128 || st.Spec.Alg != "2tbins" {
		t.Fatalf("defaults not applied on the wire: %+v", st.Spec)
	}
	s, ok := p.Session(st.ID)
	if !ok {
		t.Fatalf("submitted session %s not in directory", st.ID)
	}
	<-s.Done()
	resp, err := http.Get(ts.URL + "/query/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got Status
	json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if got.State != "done" || got.Result == nil {
		t.Fatalf("GET after done: %+v", got)
	}

	// SSE: a terminal session streams status + verdict immediately.
	resp, err = http.Get(ts.URL + "/query/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	stream, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events Content-Type = %q", ct)
	}
	if !strings.Contains(string(stream), "event: status") || !strings.Contains(string(stream), "event: verdict") {
		t.Fatalf("events stream missing records:\n%s", stream)
	}

	// Fields stats reflect the served sessions.
	resp, err = http.Get(ts.URL + "/fields")
	if err != nil {
		t.Fatal(err)
	}
	var fieldsOut []FieldStatus
	json.NewDecoder(resp.Body).Decode(&fieldsOut)
	resp.Body.Close()
	if len(fieldsOut) != 1 || fieldsOut[0].Served < 2 {
		t.Fatalf("fields = %+v", fieldsOut)
	}
}

// TestHTTPErrors maps the failure modes onto wire codes: bad body and
// bad spec 400, unknown id 404, overload 429 + Retry-After, draining
// 503.
func TestHTTPErrors(t *testing.T) {
	p := NewPool(Config{Fields: 1, MaxActive: 1, MaxQueue: 1, Hold: true})
	mux := http.NewServeMux()
	Register(mux, p)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	if code, _, _ := postQuery(t, ts, "/query", `{not json`); code != http.StatusBadRequest {
		t.Fatalf("bad body: status %d", code)
	}
	if code, _, _ := postQuery(t, ts, "/query", `{"alg":"magic"}`); code != http.StatusBadRequest {
		t.Fatalf("bad alg: status %d", code)
	}
	if code, _, _ := postQuery(t, ts, "/query", `{"unknown_knob":1}`); code != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d", code)
	}
	for _, field := range []string{"-2", "1"} {
		if code, _, _ := postQuery(t, ts, "/query", `{"field":`+field+`}`); code != http.StatusBadRequest {
			t.Fatalf("field %s outside a one-field pool: status %d", field, code)
		}
	}
	resp, err := http.Get(ts.URL + "/query/q999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id: status %d", resp.StatusCode)
	}

	// Fill the held field (1 active + 1 queued), then overload.
	for i := 0; i < 2; i++ {
		if code, _, _ := postQuery(t, ts, "/query", `{"x":20}`); code != http.StatusAccepted {
			t.Fatalf("fill %d: status %d", i, code)
		}
	}
	code, _, hdr := postQuery(t, ts, "/query", `{"x":20}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("overload: status %d", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	p.Open()
	drain(t, p)
	code, _, hdr = postQuery(t, ts, "/query", `{"x":20}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("draining: status %d", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
}

// TestHTTPQueryDefaults: the body decodes over the pool's defaults, so an
// absent field takes the default, an explicit zero survives, and an
// unknown field is still rejected.
func TestHTTPQueryDefaults(t *testing.T) {
	p := NewPool(Config{Defaults: Spec{N: 64, T: 8, X: 12, Alg: "2tbins", Model: "1+"}})
	defer drain(t, p)
	mux := http.NewServeMux()
	Register(mux, p)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	code, st, _ := postQuery(t, ts, "/query?wait=1", `{"t":4,"seed":3}`)
	if code != http.StatusOK {
		t.Fatalf("absent fields: status %d", code)
	}
	if sp := st.Spec; sp.N != 64 || sp.T != 4 || sp.X != 12 || sp.Seed != 3 || sp.Field != 0 {
		t.Fatalf("absent fields: spec %+v, want n=64 t=4 x=12 seed=3 field=0", sp)
	}

	code, st, _ = postQuery(t, ts, "/query?wait=1", `{"x":0}`)
	if code != http.StatusOK {
		t.Fatalf("explicit x=0: status %d", code)
	}
	if st.Spec.X != 0 || st.Result == nil || !st.Result.Correct {
		t.Fatalf("explicit x=0: %+v", st)
	}

	if code, _, _ := postQuery(t, ts, "/query", `{"x":1,"positives":3}`); code != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d", code)
	}
}

// FuzzQueryRequest: no request body makes POST /query panic, and every
// answer is a 2xx, 400, 429 or 503. The pool is held and never opened,
// so admitted sessions park without running and no body can make the
// process simulate; at most two are admitted before the rest shed.
func FuzzQueryRequest(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"x":0}`,
		`{"n":128,"t":16,"x":20,"seed":7,"audit":true}`,
		`{"client":"c","alg":"abns","model":"2+","field":-1,"trial":3}`,
		`{"faults":"loss=0.1","retries":2,"backoff":1}`,
		`{"n":-1,"t":1e9,"x":"a"}`,
		`{"unknown":1}`,
		`{"x":1}{"x":2}`,
		`null`,
		`{not json`,
	} {
		f.Add(seed)
	}
	p := NewPool(Config{Fields: 2, MaxActive: 1, MaxQueue: 1, MaxN: 4096, Hold: true})
	mux := http.NewServeMux()
	Register(mux, p)
	f.Fuzz(func(t *testing.T, body string) {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("POST", "/query", strings.NewReader(body)))
		switch code := rec.Code; {
		case code >= 200 && code < 300,
			code == http.StatusBadRequest,
			code == http.StatusTooManyRequests,
			code == http.StatusServiceUnavailable:
		default:
			t.Fatalf("body %q: status %d", body, code)
		}
	})
}
