package experiment

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"tcast/internal/audit"
	"tcast/internal/metrics"
	"tcast/internal/obs"
	"tcast/internal/rng"
	"tcast/internal/trace"
)

// These are the acceptance tests for parallel observability: with
// per-trial observation contexts, the worker count may change only
// wall-clock speed — the encoded trace bytes, the audit dump, and the
// result tables must be bit-identical for Workers=1 and Workers=N.

// tracedRun executes the experiment with a fresh builder and returns the
// rendered table plus the encoded trace bytes.
func tracedRun(t *testing.T, e Experiment, workers int) (string, []byte) {
	t.Helper()
	b := trace.NewBuilder()
	b.Begin(trace.KindExperiment, e.ID)
	tab, err := e.Run(Options{Runs: 20, Seed: 2011, Workers: workers, Trace: b})
	if err != nil {
		t.Fatal(err)
	}
	b.End()
	enc, err := encodeBytes(b.Trace())
	if err != nil {
		t.Fatal(err)
	}
	return Render(tab), enc
}

// TestTraceBytesWorkerIndependent covers the four traced trial shapes:
// tcast sessions (fig1 also includes the CSMA/Sequential baseline spans),
// every algorithm/model combination (fig3), the k+ substrate's inline
// trial spans (ext-kplus), and the audited backcast points, faulted or
// not (tab-acc, ext-faults).
func TestTraceBytesWorkerIndependent(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 8 // still exercises the fork path, just with more stripes than cores
	}
	for _, id := range []string{"fig1", "fig3", "ext-kplus", "tab-acc", "ext-faults"} {
		e, err := Get(id)
		if err != nil {
			t.Fatal(err)
		}
		serialTab, serialEnc := tracedRun(t, e, 1)
		parallelTab, parallelEnc := tracedRun(t, e, workers)
		if serialTab != parallelTab {
			t.Fatalf("%s: worker count changed the table:\n--- workers=1 ---\n%s--- workers=%d ---\n%s",
				id, serialTab, workers, parallelTab)
		}
		if !bytes.Equal(serialEnc, parallelEnc) {
			t.Fatalf("%s: trace bytes differ between workers=1 and workers=%d", id, workers)
		}
		// The trace must actually contain the per-trial structure.
		tr, err := trace.Decode(bytes.NewReader(parallelEnc))
		if err != nil {
			t.Fatal(err)
		}
		if a := trace.Analyze(tr); a.Phases[trace.KindTrial].Spans == 0 {
			t.Fatalf("%s: no trial spans in parallel trace", id)
		}
	}
}

// auditedRun executes the experiment with a fresh collector and returns
// the rendered table plus the collector dump.
func auditedRun(t *testing.T, e Experiment, workers int) (string, string) {
	t.Helper()
	col := &audit.Collector{}
	tab, err := e.Run(Options{Runs: 20, Seed: 2011, Workers: workers, Audit: col})
	if err != nil {
		t.Fatal(err)
	}
	return Render(tab), col.Summary()
}

// TestAuditDumpWorkerIndependent: fig1 exercises the lossless grading
// path; tab-acc is the one that produces wrong-decision rows, so it pins
// down the collector's row ordering under parallel insertion.
func TestAuditDumpWorkerIndependent(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 8
	}
	for _, id := range []string{"fig1", "tab-acc"} {
		e, err := Get(id)
		if err != nil {
			t.Fatal(err)
		}
		serialTab, serialDump := auditedRun(t, e, 1)
		parallelTab, parallelDump := auditedRun(t, e, workers)
		if serialTab != parallelTab {
			t.Fatalf("%s: worker count changed the audited table", id)
		}
		if serialDump != parallelDump {
			t.Fatalf("%s: audit dump differs between workers=1 and workers=%d:\n--- workers=1 ---\n%s--- workers=%d ---\n%s",
				id, workers, serialDump, workers, parallelDump)
		}
	}
}

// TestTabAccWrongRowsOrdered: the lossy campaign's wrong decisions must
// come out labeled in ascending trial order within each miss-rate point,
// whatever the parallelism.
func TestTabAccWrongRowsOrdered(t *testing.T) {
	e, err := Get("tab-acc")
	if err != nil {
		t.Fatal(err)
	}
	col := &audit.Collector{}
	if _, err := e.Run(Options{Runs: 40, Seed: 2011, Audit: col}); err != nil {
		t.Fatal(err)
	}
	s := col.Stats()
	if len(s.Wrong) == 0 {
		t.Skip("no wrong decisions at this seed; ordering vacuous")
	}
	lastMiss, lastTrial := -1, -1
	for _, w := range s.Wrong {
		var miss, trial int
		if _, err := fmt.Sscanf(w.Session, "2tBins/backcast/miss=%d%%/trial=%d", &miss, &trial); err != nil {
			t.Fatalf("unparseable session label %q: %v", w.Session, err)
		}
		if miss < lastMiss || (miss == lastMiss && trial <= lastTrial) {
			t.Fatalf("rows out of trial order: %q after miss=%d trial=%d", w.Session, lastMiss, lastTrial)
		}
		lastMiss, lastTrial = miss, trial
	}
}

// TestRunTrialsIndexedLowestErrorWins re-checks the lowest-index-error
// guarantee now that trial functions receive their index directly, with
// far more workers than cores (run under -race in CI).
func TestRunTrialsIndexedLowestErrorWins(t *testing.T) {
	const runs = 500
	failAt := map[int]bool{17: true, 250: true, 251: true, 499: true}
	for _, workers := range []int{1, 7, 64, runs} {
		for rep := 0; rep < 3; rep++ {
			values, err := RunTrials(runs, workers, rng.New(9), func(i int, r *rng.Source) (float64, error) {
				if failAt[i] {
					return 0, fmt.Errorf("trial %d failed", i)
				}
				return float64(i), nil
			})
			if values != nil {
				t.Fatalf("workers=%d: partial values exposed on error", workers)
			}
			if err == nil || err.Error() != "trial 17 failed" {
				t.Fatalf("workers=%d: err = %v, want the lowest-indexed failure (trial 17)", workers, err)
			}
		}
	}
}

// TestSweepErrorDropsObservationBatch: a failing series returns the
// error of its lowest failing (point, trial) pair at every worker count,
// and leaks no scheduling-dependent trace fork or audit row. The points
// before the failure keep their trial spans and rows, in order; the
// failing point keeps an empty span; later points leave nothing.
func TestSweepErrorDropsObservationBatch(t *testing.T) {
	const runs = 10
	for _, workers := range []int{1, 2, 3, 7} {
		b := trace.NewBuilder()
		col := &audit.Collector{}
		o := Options{Runs: runs, Workers: workers, Trace: b, Audit: col}
		_, err := sweep("s", []int{1, 2, 3, 4}, o, rng.New(1), func(x int, o Options) pointCost {
			return func(i int, r *rng.Source) (float64, error) {
				f := o.Trace.Fork(i)
				f.Begin(trace.KindTrial, fmt.Sprintf("x=%d/trial=%d", x, i))
				f.End()
				o.Audit.AddAt(i, fmt.Sprintf("x=%d/trial=%d", x, i), audit.Verdict{Outcome: audit.OutcomeWrongLoss})
				if x == 4 || (x == 3 && i >= 2) {
					return 0, fmt.Errorf("trial %d failed", i)
				}
				return 1, nil
			}
		})
		if want := "experiment: series s at x=3: trial 2 failed"; err == nil || err.Error() != want {
			t.Fatalf("workers=%d: err = %v, want %q", workers, err, want)
		}
		if n := b.PendingForks(); n != 0 {
			t.Fatalf("workers=%d: %d forks left pending after failed sweep", workers, n)
		}
		// The series span, x=1 and x=2 with their trials, x=3 empty.
		var got []string
		b.Trace().Roots[0].Walk(func(_ int, sp *trace.Span) { got = append(got, sp.Name) })
		want, wantRows := []string{"s"}, []string(nil)
		for x := 1; x <= 2; x++ {
			want = append(want, fmt.Sprintf("x=%d", x))
			for i := 0; i < runs; i++ {
				wantRows = append(wantRows, fmt.Sprintf("x=%d/trial=%d", x, i))
			}
			want = append(want, wantRows[len(wantRows)-runs:]...)
		}
		want = append(want, "x=3")
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Fatalf("workers=%d: spans\n%v\nwant\n%v", workers, got, want)
		}
		col.Flush() // splices any row a failed point left pending
		var rows []string
		for _, w := range col.Stats().Wrong {
			rows = append(rows, w.Session)
		}
		if strings.Join(rows, " ") != strings.Join(wantRows, " ") {
			t.Fatalf("workers=%d: audit rows %v, want x=1's and x=2's in trial order", workers, rows)
		}
	}
}

// sweepIDs lists the experiments built from sweep.
var sweepIDs = []string{
	"fig1", "fig2", "fig3", "fig5", "fig6", "fig7", "fig9",
	"abl-capture", "abl-variants",
	"ext-energy", "ext-time", "ext-battery", "ext-kplus", "ext-count",
}

// observedRun runs e with every observability layer on and returns its
// rendered table, encoded trace, audit dump, sorted bus events and
// per-poll metrics digest.
func observedRun(t *testing.T, e Experiment, workers, sample int) [5]string {
	t.Helper()
	b, col, reg, bus := trace.NewBuilder(), &audit.Collector{}, metrics.New(), obs.NewBus()
	var (
		mu     sync.Mutex
		events []string
	)
	bus.Subscribe(obs.SinkFunc(func(ev obs.Event) {
		ev.Seq = 0 // scheduling-ordered
		mu.Lock()
		events = append(events, fmt.Sprintf("%+v", ev))
		mu.Unlock()
	}))
	tab, err := e.Run(Options{Runs: 3, Seed: 2011, Workers: workers,
		Trace: b, TraceSample: sample, Audit: col, Metrics: reg, Obs: bus})
	if err != nil {
		t.Fatalf("%s: %v", e.ID, err)
	}
	tr := b.Trace()
	if trace.Analyze(tr).Phases[trace.KindSeries].Spans == 0 {
		t.Fatalf("%s: no series spans; is it still built from sweep?", e.ID)
	}
	enc, err := encodeBytes(tr)
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(events)
	polled := "" // the detector and channel-only tables run no session
	for _, c := range reg.Snapshot().Counters {
		if strings.HasPrefix(c.Name, metrics.MetricPolls) {
			polled = metricsDigest(t, reg)
			break
		}
	}
	return [5]string{Render(tab), string(enc), col.Summary(), strings.Join(events, "\n"), polled}
}

// TestSweepBatchWorkerIndependent: a series runs as one batch of (point,
// trial) pairs, so points of one series overlap in time. Every
// sweep-based experiment, fully observed and traced with and without
// sampling, must still render the same table, trace bytes, audit dump,
// bus event set and metrics series at any worker count.
func TestSweepBatchWorkerIndependent(t *testing.T) {
	parts := [5]string{"table", "trace bytes", "audit dump", "bus events", "metrics series"}
	for _, id := range sweepIDs {
		e, err := Get(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, sample := range []int{1, 4} {
			serial := observedRun(t, e, 1, sample)
			for _, workers := range []int{2, 3, 7} {
				got := observedRun(t, e, workers, sample)
				for k := range got {
					if got[k] != serial[k] {
						t.Fatalf("%s (sample %d): %s differs between workers=1 and workers=%d", id, sample, parts[k], workers)
					}
				}
			}
		}
	}
}

// sampledRun executes fig1 with 1-in-k trace sampling and returns the
// rendered table plus the encoded trace bytes.
func sampledRun(t *testing.T, e Experiment, workers, sample int) (string, []byte) {
	t.Helper()
	b := trace.NewBuilder()
	b.Begin(trace.KindExperiment, e.ID)
	tab, err := e.Run(Options{Runs: 20, Seed: 2011, Workers: workers, Trace: b, TraceSample: sample})
	if err != nil {
		t.Fatal(err)
	}
	b.End()
	enc, err := encodeBytes(b.Trace())
	if err != nil {
		t.Fatal(err)
	}
	return Render(tab), enc
}

// TestSampledTraceWorkerIndependent: head-rate sampling keys off the trial
// index, so a sampled sweep must stay byte-identical across worker counts,
// its table must match the unsampled run exactly, its trace must be
// smaller, and Analyze must recover the exact poll count from the session
// attributes with leaves scaled by the inverse rate.
func TestSampledTraceWorkerIndependent(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 8
	}
	e, err := Get("fig1")
	if err != nil {
		t.Fatal(err)
	}
	fullTab, fullEnc := sampledRun(t, e, 1, 1)
	serialTab, serialEnc := sampledRun(t, e, 1, 8)
	parallelTab, parallelEnc := sampledRun(t, e, workers, 8)
	if serialTab != parallelTab || serialTab != fullTab {
		t.Fatalf("sampling or worker count changed the table:\n--- full ---\n%s--- sampled serial ---\n%s--- sampled workers=%d ---\n%s",
			fullTab, serialTab, workers, parallelTab)
	}
	if !bytes.Equal(serialEnc, parallelEnc) {
		t.Fatalf("sampled trace bytes differ between workers=1 and workers=%d", workers)
	}
	if len(serialEnc) >= len(fullEnc) {
		t.Fatalf("sampled trace (%d bytes) not smaller than full trace (%d bytes)", len(serialEnc), len(fullEnc))
	}
	full, err := trace.Decode(bytes.NewReader(fullEnc))
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := trace.Decode(bytes.NewReader(serialEnc))
	if err != nil {
		t.Fatal(err)
	}
	fa, sa := trace.Analyze(full), trace.Analyze(sampled)
	if fa.SampledPolls != fa.Polls {
		t.Fatalf("unsampled analysis disagrees with itself: %d recorded vs %d polls", fa.SampledPolls, fa.Polls)
	}
	if sa.SampledPolls >= fa.Polls || sa.SampledPolls == 0 {
		t.Fatalf("sampled trace recorded %d poll leaves, want 0 < n < %d", sa.SampledPolls, fa.Polls)
	}
	if sa.Polls != sa.SampledPolls*8 {
		t.Fatalf("scaled poll estimate %d, want %d*8", sa.Polls, sa.SampledPolls)
	}
}

// encodeBytes renders a trace to a byte slice through Encode.
func encodeBytes(tr *trace.Trace) ([]byte, error) {
	var buf bytes.Buffer
	err := trace.Encode(&buf, tr)
	return buf.Bytes(), err
}
