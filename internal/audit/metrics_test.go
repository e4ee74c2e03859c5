package audit

import (
	"strings"
	"testing"

	"tcast/internal/core"
	"tcast/internal/fastsim"
	"tcast/internal/metrics"
	"tcast/internal/rng"
)

// counterSum adds up every series of one base counter name.
func counterSum(s metrics.Snapshot, base string) int64 {
	var sum int64
	for _, c := range s.Counters {
		if c.Name == base || strings.HasPrefix(c.Name, base+"{") {
			sum += int64(c.Value)
		}
	}
	return sum
}

// TestAuditMetricsInDumps runs audited sessions with the instrumented
// querier stacked underneath and checks the tcast_audit_* series appear in
// both dump formats with coherent partitions: every graded poll carries
// exactly one class and every instrumented poll exactly one kind, so the
// two partitions of the same poll stream must sum to the same total, and
// the outcome partition must sum to the session count.
func TestAuditMetricsInDumps(t *testing.T) {
	reg := metrics.New()
	root := rng.New(3)
	cfg := fastsim.DefaultConfig()
	cfg.MissProb = 0.15 // some sessions go wrong: populate non-ok classes
	const sessions = 16
	for i := 0; i < sessions; i++ {
		r := root.Split(uint64(i))
		ch, _ := fastsim.RandomPositives(24, 8, cfg, r.Split(1))
		aud, err := New(metrics.Wrap(ch, reg), Config{N: 24, T: 6, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		res, err := (core.TwoTBins{}).Run(aud, 24, 6, r.Split(2))
		if err != nil {
			t.Fatal(err)
		}
		aud.Finish(res.Decision)
		metrics.FinishSession(aud)
	}

	s := reg.Snapshot()
	classSum := counterSum(s, MetricAuditPolls)
	kindSum := counterSum(s, metrics.MetricPolls)
	if classSum == 0 || classSum != kindSum {
		t.Fatalf("class partition sums to %d polls, kind partition to %d", classSum, kindSum)
	}
	if got := counterSum(s, MetricAuditSessions); got != sessions {
		t.Fatalf("outcome partition sums to %d sessions, want %d", got, sessions)
	}
	if got := counterSum(s, metrics.MetricSessions); got != sessions {
		t.Fatalf("instrumented sessions = %d, want %d", got, sessions)
	}

	var text, prom strings.Builder
	if err := metrics.WriteText(&text, s); err != nil {
		t.Fatal(err)
	}
	if err := metrics.WritePrometheus(&prom, s); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		MetricAuditPolls + `{class="ok"}`,
		MetricAuditSessions + `{outcome="correct"}`,
	} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text dump missing %q:\n%s", want, text.String())
		}
		if !strings.Contains(prom.String(), want) {
			t.Errorf("prometheus dump missing %q:\n%s", want, prom.String())
		}
	}
	if want := "# TYPE " + MetricAuditPolls + " counter"; !strings.Contains(prom.String(), want) {
		t.Errorf("prometheus dump missing %q", want)
	}
}

// TestAuditorResetRetargetsMetrics: a pooled auditor keeps its counters
// across Resets against one registry and moves them when the registry
// changes — to a second registry, or to none.
func TestAuditorResetRetargetsMetrics(t *testing.T) {
	a, b := metrics.New(), metrics.New()
	ch, _ := fastsim.RandomPositives(24, 8, fastsim.DefaultConfig(), rng.New(5))
	aud := new(Auditor)
	for i, reg := range []*metrics.Registry{a, a, b, nil, a} {
		if err := aud.Reset(ch, Config{N: 24, T: 6, Metrics: reg}); err != nil {
			t.Fatal(err)
		}
		res, err := (core.TwoTBins{}).Run(aud, 24, 6, rng.New(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		aud.Finish(res.Decision)
	}
	for _, c := range []struct {
		name     string
		reg      *metrics.Registry
		sessions int64
	}{{"first", a, 3}, {"second", b, 1}} {
		if got := counterSum(c.reg.Snapshot(), MetricAuditSessions); got != c.sessions {
			t.Errorf("%s registry graded %d sessions, want %d", c.name, got, c.sessions)
		}
	}
}
