package main

import (
	"fmt"
	"testing"

	"tcast/internal/obs"
)

// TestScaleTrialsRun: every population of the trio completes a batch of
// telemetered trials and the sketch sink sees every session.
func TestScaleTrialsRun(t *testing.T) {
	for _, n := range []int{1_000, 100_000} {
		states := newScaleStates(2)
		sink := obs.NewSketchSink(nil)
		if err := runScaleTrials(n, 32, states, sink); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		rep := sink.Snapshot()
		if rep.Sessions != 32 {
			t.Fatalf("n=%d: sink saw %d sessions, want 32", n, rep.Sessions)
		}
		if rep.Polls.Max <= 0 || rep.Slots.Max <= 0 {
			t.Fatalf("n=%d: degenerate cost sketch %+v", n, rep)
		}
	}
}

// TestScaleTelemetryBytesFlat pins the trio's acceptance criterion: with
// sparse ledgers, sampled traces and sketch summaries, the allocated
// bytes per fully observed trial must stay within 2x across a 100-1000x
// population sweep. Dense per-node ledgers or unsampled traces would blow
// straight through the bound.
func TestScaleTelemetryBytesFlat(t *testing.T) {
	const iters = 512
	small, err := measureScaleBytes(1_000, iters)
	if err != nil {
		t.Fatal(err)
	}
	large, err := measureScaleBytes(100_000, iters)
	if err != nil {
		t.Fatal(err)
	}
	if small <= 0 {
		t.Fatalf("degenerate measurement: %.0f B/op at n=1e3", small)
	}
	if large > 2*small {
		t.Fatalf("telemetry bytes grew with N: %.0f B/op at n=1e3 vs %.0f B/op at n=1e5 (>2x)", small, large)
	}
	if testing.Short() {
		return
	}
	huge, err := measureScaleBytes(1_000_000, 128)
	if err != nil {
		t.Fatal(err)
	}
	if huge > 2*small {
		t.Fatalf("telemetry bytes grew with N: %.0f B/op at n=1e3 vs %.0f B/op at n=1e6 (>2x)", small, huge)
	}
}

// TestCompareMemGate: the -memgate comparison counts bytes/op growth on
// gated benchmarks as a regression and leaves ungated ones alone.
func TestCompareMemGate(t *testing.T) {
	base := File{Schema: benchSchema, Version: benchVersion, Benchmarks: []Result{
		{Name: "query-2tbins-scale-1e5", NsOp: 100, BytesOp: 1000},
		{Name: "query-probabns", NsOp: 100, BytesOp: 1000},
	}}
	current := File{Schema: benchSchema, Version: benchVersion, Benchmarks: []Result{
		{Name: "query-2tbins-scale-1e5", NsOp: 100, BytesOp: 2000},
		{Name: "query-probabns", NsOp: 100, BytesOp: 2000},
	}}
	if got := compare(base, current, 1.10, "", 1.10, "query-2tbins-scale", 1.25); got != 1 {
		t.Fatalf("memgate counted %d regressions, want 1 (scale bench only)", got)
	}
	if got := compare(base, current, 1.10, "", 1.10, "", 1.25); got != 0 {
		t.Fatalf("disabled memgate counted %d regressions, want 0", got)
	}
	within := File{Schema: benchSchema, Version: benchVersion, Benchmarks: []Result{
		{Name: "query-2tbins-scale-1e5", NsOp: 100, BytesOp: 1200},
	}}
	if got := compare(base, within, 1.10, "", 1.10, "query-2tbins-scale", 1.25); got != 0 {
		t.Fatalf("within-threshold bytes counted %d regressions, want 0", got)
	}
}

// TestCompareMemGateFloor: growth under memFloor bytes/op is runtime
// noise whatever its ratio, while a real +30% at 1 KB/op still counts.
func TestCompareMemGateFloor(t *testing.T) {
	run := func(bytes ...int64) File {
		f := File{Schema: benchSchema, Version: benchVersion}
		for _, b := range bytes {
			f.Benchmarks = append(f.Benchmarks, Result{Name: fmt.Sprintf("query-2tbins-sparse-%d", b), NsOp: 100, BytesOp: b})
		}
		return f
	}
	base, noise := run(1, 1024), run(1, 1024)
	noise.Benchmarks[0].BytesOp = 3 // 1 -> 3 B/op: 3x, 2 bytes
	if got := compare(base, noise, 1.10, "", 1.10, "query-2tbins-s", 1.25); got != 0 {
		t.Fatalf("1 -> 3 B/op counted %d regressions, want 0", got)
	}
	grown := run(1, 1024)
	grown.Benchmarks[1].BytesOp = 1024 * 13 / 10 // +30% at 1 KB/op
	if got := compare(base, grown, 1.10, "", 1.10, "query-2tbins-s", 1.25); got != 1 {
		t.Fatalf("+30%% at 1 KB/op counted %d regressions, want 1", got)
	}
}
