package experiment

import (
	"strings"
	"testing"

	"tcast/internal/audit"
	"tcast/internal/faults"
	"tcast/internal/query"
	"tcast/internal/trace"
)

// runObserved executes one experiment with the full observability stack
// and returns the three byte-level artifacts a run produces: the rendered
// result table, the encoded span trace, and the audit summary.
func runObserved(t *testing.T, id string, o Options) (table, traceBytes, auditDump string) {
	t.Helper()
	e, err := Get(id)
	if err != nil {
		t.Fatal(err)
	}
	builder := trace.NewBuilder()
	col := &audit.Collector{}
	o.Trace = builder
	o.Audit = col
	tab, err := e.Run(o)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	enc, err := encodeBytes(builder.Trace())
	if err != nil {
		t.Fatalf("%s: encoding trace: %v", id, err)
	}
	return Render(tab), string(enc), col.Summary()
}

// TestFaultedZeroRateByteIdentical pins the fault layer's reproducibility
// contract: a run with the injector interposed but every rate zero is
// byte-identical to a bare run — same rendered tables, same encoded
// traces, same audit dumps — across a figure experiment, a threshold
// sweep, and the audited accuracy campaign. This is what lets faulted
// configurations share baselines with bare ones, and it is the test CI
// runs under the race detector.
func TestFaultedZeroRateByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-experiment sweep")
	}
	for _, id := range []string{"fig1", "fig3", "tab-acc"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			o := Options{Runs: 6, Seed: 42, Workers: 3}
			bareTab, bareTrace, bareAudit := runObserved(t, id, o)

			o.Faults = &faults.Config{} // interposed but inert
			fTab, fTrace, fAudit := runObserved(t, id, o)

			if bareTab != fTab {
				t.Errorf("tables differ:\nbare:\n%s\nfaulted:\n%s", bareTab, fTab)
			}
			if bareTrace != fTrace {
				t.Error("encoded traces differ between bare and zero-rate faulted runs")
			}
			if bareAudit != fAudit {
				t.Errorf("audit dumps differ:\nbare:\n%s\nfaulted:\n%s", bareAudit, fAudit)
			}
		})
	}
}

// TestFaultedRunDegradesAndAttributes drives tab-acc's lossless zero-miss
// point under heavy injected faults and checks the other side of the
// contract: decisions actually degrade, and every wrong decision's audit
// label stays joined to a session the collector graded.
func TestFaultedRunDegradesAndAttributes(t *testing.T) {
	e, err := Get("ext-faults")
	if err != nil {
		t.Fatal(err)
	}
	col := &audit.Collector{}
	tab, err := e.Run(Options{Runs: 30, Seed: 11, Workers: 4, Audit: col})
	if err != nil {
		t.Fatal(err)
	}
	// Some burst point must show degradation for the plain series.
	plain := tab.Get("backcast accuracy")
	if plain == nil {
		t.Fatal("missing plain accuracy series")
	}
	degraded := false
	for _, p := range plain.Points {
		if p.X > 0 && p.Y < 1 {
			degraded = true
		}
	}
	if !degraded {
		t.Fatal("no degradation at any nonzero burst length")
	}
	// Every wrong decision's session label must name its causal fault —
	// the lossless-medium design guarantees all loss is injected, so an
	// unattributed wrong decision would be an attribution bug.
	st := col.Stats()
	wrong := st.Outcomes[audit.OutcomeWrongLoss] + st.Outcomes[audit.OutcomeWrongAlgorithm]
	if wrong == 0 {
		t.Fatal("expected wrong decisions under heavy faults")
	}
	if len(st.Wrong) != wrong {
		t.Fatalf("Stats.Wrong lists %d rows, outcomes count %d", len(st.Wrong), wrong)
	}
	for _, w := range st.Wrong {
		if !strings.Contains(w.Session, "[poll ") {
			t.Errorf("wrong decision without a fault attribution: %s", w.Session)
		}
	}
}

// TestRetryPolicyReducesFaultErrors checks the retry knob end to end
// through Options: with bursty silence-forging faults, retrying silent
// polls must not lower accuracy, and the zero policy remains inert.
func TestRetryPolicyReducesFaultErrors(t *testing.T) {
	e, err := Get("tab-acc")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := faults.ParseSpec("burst=4,frac=0.3")
	if err != nil {
		t.Fatal(err)
	}
	run := func(retry query.RetryPolicy) float64 {
		tab, err := e.Run(Options{Runs: 60, Seed: 9, Workers: 4, Faults: &cfg, Retry: retry})
		if err != nil {
			t.Fatal(err)
		}
		acc := tab.Get("decision accuracy")
		if acc == nil {
			t.Fatal("missing accuracy series")
		}
		// The miss=0% point isolates injected faults from the medium's
		// own i.i.d. loss.
		y, err := acc.YAt(0)
		if err != nil {
			t.Fatal(err)
		}
		return y
	}
	bare := run(query.RetryPolicy{})
	retried := run(query.RetryPolicy{MaxRetries: 2, Backoff: 1})
	if retried < bare {
		t.Fatalf("retry policy lowered accuracy: %.3f -> %.3f", bare, retried)
	}
	if bare >= 1 {
		t.Fatalf("burst faults should degrade the unretried run, got accuracy %.3f", bare)
	}
}
