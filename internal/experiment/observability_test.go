package experiment

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"tcast/internal/metrics"
	"tcast/internal/rng"
	"tcast/internal/stats"
	"tcast/internal/trace"
)

// failingTrial builds a trial function that fails at exactly the given
// indices, using the index RunTrials now passes directly.
func failingTrial(failAt map[int]bool) (func(i int, r *rng.Source) (float64, error), *int32) {
	var executed int32
	return func(i int, r *rng.Source) (float64, error) {
		atomic.AddInt32(&executed, 1)
		if failAt[i] {
			return 0, fmt.Errorf("trial %d failed", i)
		}
		return float64(i), nil
	}, &executed
}

// TestRunTrialsErrorDeterministic: whatever the worker count or goroutine
// scheduling, the error reported must be the one from the lowest-indexed
// failing trial, and no partial values may escape.
func TestRunTrialsErrorDeterministic(t *testing.T) {
	const runs = 400
	failAt := map[int]bool{399: true, 123: true, 124: true, 350: true}
	for _, workers := range []int{1, 2, 3, 8, 32} {
		for rep := 0; rep < 5; rep++ {
			trial, _ := failingTrial(failAt)
			values, err := RunTrials(runs, workers, rng.New(42), trial)
			if values != nil {
				t.Fatalf("workers=%d: partial values exposed on error", workers)
			}
			if err == nil || err.Error() != "trial 123 failed" {
				t.Fatalf("workers=%d: err = %v, want the lowest-indexed failure (trial 123)", workers, err)
			}
		}
	}
}

// TestRunTrialsCancelsAfterFailure: with two workers, an immediate failure
// on one stripe must stop the other (slow) stripe long before it finishes.
func TestRunTrialsCancelsAfterFailure(t *testing.T) {
	const runs = 200
	var executed int32
	_, err := RunTrials(runs, 2, rng.New(1), func(i int, r *rng.Source) (float64, error) {
		atomic.AddInt32(&executed, 1)
		if i == 1 {
			return 0, fmt.Errorf("trial 1 failed")
		}
		// Surviving trials are slow, so by the time the even-stripe
		// worker reaches its next skip check the failure from trial 1
		// has long been recorded.
		time.Sleep(time.Millisecond)
		return 0, nil
	})
	if err == nil || err.Error() != "trial 1 failed" {
		t.Fatalf("err = %v", err)
	}
	// Exact counts depend on scheduling; what must never happen is the
	// old behavior of running the entire stripe after a failure (~100ms
	// of sleeps here against a failure recorded within microseconds).
	if n := atomic.LoadInt32(&executed); int(n) == runs {
		t.Fatalf("all %d trials executed despite early failure", n)
	}
}

func TestRunTrialsSingleFailureAtEnd(t *testing.T) {
	const runs = 50
	trial, executed := failingTrial(map[int]bool{49: true})
	_, err := RunTrials(runs, 4, rng.New(7), trial)
	if err == nil || err.Error() != "trial 49 failed" {
		t.Fatalf("err = %v", err)
	}
	// Every trial below the failure must have executed (that is what makes
	// the lowest-failure guarantee deterministic).
	if n := atomic.LoadInt32(executed); n != runs {
		t.Fatalf("executed %d of %d trials; trials below the failure were skipped", n, runs)
	}
}

// TestInstrumentationDoesNotPerturbTrials is the determinism acceptance
// test: the same seed must produce bit-identical figure tables with and
// without the metrics layer interposed (run under -race in CI, which also
// exercises concurrent metric updates from the worker pool).
func TestInstrumentationDoesNotPerturbTrials(t *testing.T) {
	for _, id := range []string{"fig1", "fig2"} {
		e, err := Get(id)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := e.Run(Options{Runs: 30, Seed: 2011})
		if err != nil {
			t.Fatal(err)
		}
		reg := metrics.New()
		instrumented, err := e.Run(Options{Runs: 30, Seed: 2011, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		if Render(plain) != Render(instrumented) {
			t.Fatalf("%s: instrumentation changed the table:\n--- plain ---\n%s--- instrumented ---\n%s",
				id, Render(plain), Render(instrumented))
		}
		// And the run must actually have recorded something.
		s := reg.Snapshot()
		if len(s.Counters) == 0 || len(s.Histograms) == 0 {
			t.Fatalf("%s: registry empty after instrumented run", id)
		}
	}
}

// TestMetricsPartitionPollTotals: the per-kind poll counters must sum to
// the session histogram's poll total — the acceptance criterion for the
// fig1 metrics dump.
func TestMetricsPartitionPollTotals(t *testing.T) {
	e, err := Get("fig1")
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	if _, err := e.Run(Options{Runs: 20, Seed: 3, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	var perKind, totalPolls float64
	for _, c := range s.Counters {
		switch c.Name {
		case metrics.Name(metrics.MetricPolls, "kind", "empty"),
			metrics.Name(metrics.MetricPolls, "kind", "active"),
			metrics.Name(metrics.MetricPolls, "kind", "decoded"),
			metrics.Name(metrics.MetricPolls, "kind", "collision"):
			perKind += c.Value
		}
	}
	for _, h := range s.Histograms {
		if h.Name == metrics.MetricSessionPolls {
			totalPolls = h.Sum
		}
	}
	if perKind == 0 || perKind != totalPolls {
		t.Fatalf("per-kind polls %v != session poll total %v", perKind, totalPolls)
	}
}

// TestTracingDoesNotPerturbTrials extends the determinism acceptance test
// to the span layer: the span recorder consumes zero randomness, so a
// traced run must produce the identical figure table as a bare run with
// the same seed, and two traced runs with the same seed must serialize to
// byte-identical trace files.
func TestTracingDoesNotPerturbTrials(t *testing.T) {
	for _, id := range []string{"fig1", "fig2"} {
		e, err := Get(id)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := e.Run(Options{Runs: 20, Seed: 2011})
		if err != nil {
			t.Fatal(err)
		}

		run := func() (*stats.Table, []byte) {
			b := trace.NewBuilder()
			res, err := e.Run(Options{Runs: 20, Seed: 2011, Trace: b})
			if err != nil {
				t.Fatal(err)
			}
			enc, err := encodeBytes(b.Trace())
			if err != nil {
				t.Fatal(err)
			}
			return res, enc
		}
		traced, enc1 := run()
		_, enc2 := run()

		if Render(plain) != Render(traced) {
			t.Fatalf("%s: tracing changed the table:\n--- plain ---\n%s--- traced ---\n%s",
				id, Render(plain), Render(traced))
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("%s: same-seed traced runs are not byte-identical", id)
		}
		// The trace must actually contain the trial structure.
		tr, err := trace.Decode(bytes.NewReader(enc1))
		if err != nil {
			t.Fatal(err)
		}
		a := trace.Analyze(tr)
		if a.Phases[trace.KindTrial].Spans == 0 || a.Polls == 0 {
			t.Fatalf("%s: trace missing trials/polls: %+v", id, a)
		}
	}
}

// TestTracingAndMetricsStack: both observability layers enabled at once
// still reproduce the bare table — the experiment-level counterpart of the
// middleware-ordering test in internal/trace.
func TestTracingAndMetricsStack(t *testing.T) {
	e, err := Get("fig1")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := e.Run(Options{Runs: 20, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	b := trace.NewBuilder()
	both, err := e.Run(Options{Runs: 20, Seed: 7, Metrics: reg, Trace: b})
	if err != nil {
		t.Fatal(err)
	}
	if Render(plain) != Render(both) {
		t.Fatalf("stacked observability changed the table:\n--- plain ---\n%s--- stacked ---\n%s",
			Render(plain), Render(both))
	}
	if a := trace.Analyze(b.Trace()); a.Polls == 0 {
		t.Fatal("no polls traced")
	}
	if len(reg.Snapshot().Counters) == 0 {
		t.Fatal("registry empty")
	}
}
