package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strings"
)

// WriteText writes an expvar-style human-readable dump of the registry:
// one "name value" line per counter and gauge, and a block per histogram
// with count, sum, mean and the cumulative bucket counts.
func WriteText(w io.Writer, s Snapshot) error {
	for _, c := range s.Counters {
		if _, err := fmt.Fprintf(w, "%s %d\n", c.Name, int64(c.Value)); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		if _, err := fmt.Fprintf(w, "%s %g\n", g.Name, g.Value); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		mean := 0.0
		if h.Count > 0 {
			mean = h.Sum / float64(h.Count)
		}
		if _, err := fmt.Fprintf(w, "%s count=%d sum=%g mean=%.3f\n", h.Name, h.Count, h.Sum, mean); err != nil {
			return err
		}
		for _, b := range h.Buckets {
			le := "+Inf"
			if !math.IsInf(b.UpperBound, 1) {
				le = fmt.Sprintf("%g", b.UpperBound)
			}
			if _, err := fmt.Fprintf(w, "  le=%s %d\n", le, b.Count); err != nil {
				return err
			}
		}
	}
	for _, sm := range s.Summaries {
		if _, err := fmt.Fprintf(w, "%s count=%d sum=%g min=%g max=%g\n", sm.Name, sm.Count, sm.Sum, sm.Min, sm.Max); err != nil {
			return err
		}
		for _, qp := range sm.Quantiles {
			if _, err := fmt.Fprintf(w, "  q=%g %g\n", qp.Q, qp.Value); err != nil {
				return err
			}
		}
	}
	return nil
}

// WritePrometheus writes the snapshot in the Prometheus text exposition
// format (version 0.0.4). Label sets folded into names by Name are
// emitted as-is; histogram bucket labels are merged with any base labels.
// Series of one base name sort adjacently, so the format's one-TYPE-line-
// per-metric rule reduces to skipping repeats of the previous base.
func WritePrometheus(w io.Writer, s Snapshot) error {
	prevType := ""
	typeLine := func(base, kind string) error {
		if base == prevType {
			return nil
		}
		prevType = base
		_, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, kind)
		return err
	}
	for _, c := range s.Counters {
		if err := typeLine(baseName(c.Name), "counter"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", c.Name, int64(c.Value)); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		if err := typeLine(baseName(g.Name), "gauge"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %g\n", g.Name, g.Value); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		if err := typeLine(baseName(h.Name), "histogram"); err != nil {
			return err
		}
		for _, b := range h.Buckets {
			le := "+Inf"
			if !math.IsInf(b.UpperBound, 1) {
				le = fmt.Sprintf("%g", b.UpperBound)
			}
			if _, err := fmt.Fprintf(w, "%s %d\n", withLabel(h.Name, "_bucket", "le", le), b.Count); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s %g\n", suffixed(h.Name, "_sum"), h.Sum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", suffixed(h.Name, "_count"), h.Count); err != nil {
			return err
		}
	}
	for _, sm := range s.Summaries {
		if err := typeLine(baseName(sm.Name), "summary"); err != nil {
			return err
		}
		for _, qp := range sm.Quantiles {
			if _, err := fmt.Fprintf(w, "%s %g\n", withLabel(sm.Name, "", "quantile", fmt.Sprintf("%g", qp.Q)), qp.Value); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s %g\n", suffixed(sm.Name, "_sum"), sm.Sum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", suffixed(sm.Name, "_count"), sm.Count); err != nil {
			return err
		}
	}
	return nil
}

// baseName strips a folded label set from a metric name.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// suffixed inserts suffix after the base name, before any label set:
// suffixed(`h{k="v"}`, "_sum") == `h_sum{k="v"}`.
func suffixed(name, suffix string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i] + suffix + name[i:]
	}
	return name + suffix
}

// withLabel appends suffix to the base name and merges one extra label
// into the (possibly empty) label set.
func withLabel(name, suffix, key, value string) string {
	extra := fmt.Sprintf("%s=%q", key, value)
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i] + suffix + name[i:len(name)-1] + "," + extra + "}"
	}
	return name + suffix + "{" + extra + "}"
}

// DumpToPath writes the registry to path: "-" means stdout, and a path
// ending in ".prom" selects the Prometheus text format instead of the
// default text dump.
func DumpToPath(r *Registry, path string) error {
	s := r.Snapshot()
	if path == "-" {
		return WriteText(os.Stdout, s)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".prom") {
		if err := WritePrometheus(f, s); err != nil {
			return err
		}
	} else if err := WriteText(f, s); err != nil {
		return err
	}
	return f.Close()
}

// Handler serves the registry in Prometheus text format — mount it at
// /metrics to scrape a long-running run.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WritePrometheus(w, r.Snapshot())
	})
}

// TextHandler serves the registry's human-readable text dump (the
// WriteText format) — the obs plane mounts it at /metrics/text next to
// the Prometheus endpoint.
func TextHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = WriteText(w, r.Snapshot())
	})
}
