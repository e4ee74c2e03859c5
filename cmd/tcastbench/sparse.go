package main

import (
	"fmt"
	"runtime"
	"testing"

	"tcast/internal/rng"
	"tcast/internal/session"
)

// The sparse pair prices the streamed query path itself, with no
// observability layers: one op is one bare 2tBins trial on a field at or
// above idset.SparseCutover, so sessions draw bins one at a time from the
// keyed permutation against the ranked candidate snapshot, and positives
// come from Floyd's sparse sampler. The entries exist for their B/op
// column — the CI memgate holds the per-trial allocator traffic of a
// 10^6- and a 10^7-node session to the committed baseline, the same way
// the telemetry trio pins observability memory flat in N.
//
// Unlike the trio, the pair runs serially with ONE preallocated state:
// each worker's O(N) substrate (channel positive set, the session's rank
// directory) is tens of megabytes at 10^7, so one resident copy is the
// whole point — the measured loop reuses it and steady-state trials
// allocate nothing.

// sparseWarmup trials size every O(N) buffer before the timed loop.
const sparseWarmup = 2

// runSparseTrials executes total bare trials at population n on the one
// reused session, in trial order. Shared by the benchmark body and the
// sublinear-bytes regression test.
func runSparseTrials(n, total int, s *session.Session) error {
	root := rng.New(1)
	var r rng.Source
	for i := 0; i < total; i++ {
		root.SplitInto(uint64(i), &r)
		if err := s.Reset(twoTBinsSpec(n), &r); err != nil {
			return err
		}
		res, err := s.Run()
		if err != nil {
			return err
		}
		if !res.Decision {
			return fmt.Errorf("sparse trial %d at n=%d: wrong decision", i, n)
		}
	}
	return nil
}

// sparseBench is one entry of the pair.
func sparseBench(name string, n int) bench {
	return bench{
		name:     name,
		short:    true,
		perTrial: true,
		fn: func(b *testing.B) {
			var s session.Session
			if err := runSparseTrials(n, sparseWarmup, &s); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			if err := runSparseTrials(n, b.N, &s); err != nil {
				b.Fatal(err)
			}
		},
		// Cost-model work of one trial: a single traced session. The span
		// layer materializes each streamed bin's members exactly as the
		// bare path hands them to the querier.
		traced: func() (int64, int64, error) {
			sp := twoTBinsSpec(n)
			sp.TraceSample = scaleSampleRate
			return tracedTrial(sp)
		},
	}
}

// sparseBenches returns the pair in sweep order.
func sparseBenches() []bench {
	return []bench{
		sparseBench("query-2tbins-sparse-1e6", 1_000_000),
		sparseBench("query-2tbins-sparse-1e7", 10_000_000),
	}
}

// measureSparseBytes is the test hook behind the sublinear-bytes
// acceptance check: allocated bytes per bare sparse trial at population
// n, measured after the warmup has sized the one state's buffers.
func measureSparseBytes(n, iters int) (float64, error) {
	var s session.Session
	if err := runSparseTrials(n, sparseWarmup, &s); err != nil {
		return 0, fmt.Errorf("warmup: %w", err)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := runSparseTrials(n, iters, &s); err != nil {
		return 0, err
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(iters), nil
}
