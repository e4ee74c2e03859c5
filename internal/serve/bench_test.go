package serve

import (
	"context"
	"io"
	"testing"
	"time"

	"tcast/internal/metrics"
	"tcast/internal/obs"
)

// BenchmarkPoolLone serves one session at a time: every grant is the
// session's own, the shape of a closed-loop client on an idle field.
func BenchmarkPoolLone(b *testing.B) { benchmarkPool(b, 1) }

// BenchmarkPoolContended keeps 16 sessions in flight on one field, so
// nearly every poll hands the medium to another session.
func BenchmarkPoolContended(b *testing.B) { benchmarkPool(b, 16) }

// benchmarkPool runs b.N sessions through a one-field pool wired like
// tcastd (a metrics registry and an obs bus), window of them in flight.
// Half the sessions are audited; x sweeps t-4..t+4, so both verdicts
// occur, and every verdict must be correct.
func benchmarkPool(b *testing.B, window int) {
	reg := metrics.New()
	plane, err := obs.Config{}.Build(io.Discard, reg, true)
	if err != nil {
		b.Fatal(err)
	}
	defer plane.Close()
	p := NewPool(Config{Fields: 1, Registry: reg, Bus: plane.Bus()})
	check := func(s *Session) {
		<-s.Done()
		r, err := s.Result()
		if err != nil {
			b.Fatalf("%s: %v", s.ID, err)
		}
		if !r.Correct {
			b.Fatalf("%s: wrong verdict (%s)", s.ID, r.Outcome)
		}
	}
	ring := make([]*Session, window)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := ring[i%window]; s != nil {
			check(s)
		}
		s, err := p.Submit(Spec{
			N: 128, T: 16, X: 12 + i%9, Alg: "2tbins", Seed: 2011, Trial: i,
			Field: 0, Audit: i%2 == 0,
		}, "bench")
		if err != nil {
			b.Fatal(err)
		}
		ring[i%window] = s
	}
	for _, s := range ring {
		if s != nil {
			check(s)
		}
	}
	b.StopTimer()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := p.Drain(ctx); err != nil {
		b.Fatal(err)
	}
}
