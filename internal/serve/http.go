package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"
)

// clientID names the submitting client for per-client admission: the
// request body's client field, else the X-Tcast-Client header, else the
// remote host.
func clientID(client string, r *http.Request) string {
	if client != "" {
		return client
	}
	if h := r.Header.Get("X-Tcast-Client"); h != "" {
		return h
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// writeJSON renders v with the service's content type.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError maps service errors onto wire status codes: overload and
// draining become 429/503 with a Retry-After header (graceful
// degradation — the client knows to back off, not that the service
// broke), validation failures 400.
func writeError(w http.ResponseWriter, err error) {
	var over *OverloadError
	switch {
	case errors.As(err, &over):
		w.Header().Set("Retry-After", strconv.Itoa(int(over.RetryAfter/time.Second)))
		writeJSON(w, http.StatusTooManyRequests, map[string]string{"error": over.Error()})
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
	default:
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
	}
}

// FieldStatus is one field's row in GET /fields.
type FieldStatus struct {
	Index    int   `json:"index"`
	Clock    int64 `json:"clock"`
	Served   int64 `json:"served"`
	InFlight int64 `json:"in_flight"`
	Active   int64 `json:"active"`
	Queued   int64 `json:"queued"`
}

// Register mounts the serving routes onto mux (Go 1.22 method+wildcard
// patterns):
//
//	POST /query             submit; 202 + session status (or 200 final
//	                        status with ?wait=1); 429/503 when shed
//	GET  /query/{id}        session status snapshot
//	GET  /query/{id}/events SSE: status now, final status at completion
//	GET  /fields            per-field clock/occupancy stats
func Register(mux *http.ServeMux, p *Pool) {
	mux.HandleFunc("POST /query", func(w http.ResponseWriter, r *http.Request) {
		// The body decodes over the pool's N/T/X and the round-robin
		// field, so an absent field keeps its default while an explicit
		// zero (x=0: no positives) survives. String and bool defaults
		// are resolveSpec's job.
		d := p.cfg.Defaults
		req := struct {
			Client string `json:"client"`
			Spec
		}{Spec: Spec{N: d.N, T: d.T, X: d.X, Field: -1}}
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad request body: " + err.Error()})
			return
		}
		s, err := p.Submit(req.Spec, clientID(req.Client, r))
		if err != nil {
			writeError(w, err)
			return
		}
		if r.URL.Query().Get("wait") != "" {
			select {
			case <-s.Done():
				writeJSON(w, http.StatusOK, s.Status())
			case <-r.Context().Done():
			}
			return
		}
		w.Header().Set("Location", "/query/"+s.ID)
		writeJSON(w, http.StatusAccepted, s.Status())
	})

	mux.HandleFunc("GET /query/{id}", func(w http.ResponseWriter, r *http.Request) {
		s, ok := p.Session(r.PathValue("id"))
		if !ok {
			writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown session"})
			return
		}
		writeJSON(w, http.StatusOK, s.Status())
	})

	mux.HandleFunc("GET /query/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		s, ok := p.Session(r.PathValue("id"))
		if !ok {
			writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown session"})
			return
		}
		flusher, ok := w.(http.Flusher)
		if !ok {
			http.Error(w, "streaming unsupported", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.WriteHeader(http.StatusOK)
		writeSSEStatus(w, "status", s.Status())
		flusher.Flush()
		if !s.State().Terminal() {
			select {
			case <-s.Done():
			case <-r.Context().Done():
				return
			}
		}
		writeSSEStatus(w, "verdict", s.Status())
		flusher.Flush()
	})

	mux.HandleFunc("GET /fields", func(w http.ResponseWriter, _ *http.Request) {
		out := make([]FieldStatus, 0, len(p.fields))
		for _, f := range p.fields {
			out = append(out, FieldStatus{
				Index:    f.index,
				Clock:    f.Clock(),
				Served:   f.Served(),
				InFlight: f.inflight.Load(),
				Active:   f.active.Load(),
				Queued:   f.queued.Load(),
			})
		}
		writeJSON(w, http.StatusOK, out)
	})
}

// writeSSEStatus emits one named SSE record carrying a status payload.
func writeSSEStatus(w http.ResponseWriter, event string, st Status) {
	data, err := json.Marshal(st)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
}
