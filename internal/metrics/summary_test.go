package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestSummaryObserveAndSnapshot(t *testing.T) {
	r := New()
	s := r.Summary("session_slots", "alg", "2tbins")
	if r.Summary("session_slots", "alg", "2tbins") != s {
		t.Fatalf("Summary did not return the same handle")
	}
	for i := 1; i <= 1000; i++ {
		s.Observe(float64(i))
	}
	if s.Count() != 1000 {
		t.Fatalf("count %d", s.Count())
	}
	snap := r.Snapshot()
	if len(snap.Summaries) != 1 {
		t.Fatalf("summaries in snapshot: %d", len(snap.Summaries))
	}
	sv := snap.Summaries[0]
	if sv.Name != `session_slots{alg="2tbins"}` {
		t.Errorf("name %q", sv.Name)
	}
	if sv.Count != 1000 || sv.Sum != 500500 || sv.Min != 1 || sv.Max != 1000 {
		t.Errorf("count/sum/min/max: %+v", sv)
	}
	if len(sv.Quantiles) != 3 {
		t.Fatalf("quantile points: %d", len(sv.Quantiles))
	}
	for _, qp := range sv.Quantiles {
		want := qp.Q * 999
		if math.Abs(qp.Value-want)/want > 0.02 {
			t.Errorf("q=%g: %v, want ~%v", qp.Q, qp.Value, want)
		}
	}
}

func TestSummaryExposition(t *testing.T) {
	r := New()
	s := r.Summary("poll_bin_size")
	for i := 0; i < 100; i++ {
		s.Observe(float64(1 + i%10))
	}
	r.Summary("empty_summary") // no observations: only _sum/_count emitted

	var text strings.Builder
	if err := WriteText(&text, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"poll_bin_size count=100", "  q=0.5 ", "  q=0.99 ", "empty_summary count=0"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text dump missing %q:\n%s", want, text.String())
		}
	}

	var prom strings.Builder
	if err := WritePrometheus(&prom, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE poll_bin_size summary",
		`poll_bin_size{quantile="0.5"}`,
		`poll_bin_size{quantile="0.99"}`,
		"poll_bin_size_sum ",
		"poll_bin_size_count 100",
		"empty_summary_count 0",
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("prometheus dump missing %q:\n%s", want, prom.String())
		}
	}
	if strings.Contains(prom.String(), `empty_summary{quantile`) {
		t.Errorf("empty summary emitted quantile series:\n%s", prom.String())
	}
}
