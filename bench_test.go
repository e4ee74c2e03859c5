package tcast

// Micro-benchmarks for the primitives. The per-figure sweeps are
// benchmarked by cmd/tcastbench, which regenerates every registered
// experiment at reduced trial counts.

import (
	"testing"

	"tcast/internal/baseline"
	"tcast/internal/core"
	"tcast/internal/fastsim"
	"tcast/internal/idset"
	"tcast/internal/motelab"
	"tcast/internal/pollcast"
	"tcast/internal/query"
	"tcast/internal/radio"
	"tcast/internal/rng"
)

func benchAlgorithm(b *testing.B, alg core.Algorithm, n, t, x int, cfg fastsim.Config) {
	root := rng.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := root.Split(uint64(i))
		ch, _ := fastsim.RandomPositives(n, x, cfg, r.Split(1))
		if _, err := alg.Run(ch, n, t, r.Split(2)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQuery2tBins(b *testing.B) {
	benchAlgorithm(b, core.TwoTBins{}, 128, 16, 16, fastsim.DefaultConfig())
}

func BenchmarkQuery2tBinsTwoPlus(b *testing.B) {
	benchAlgorithm(b, core.TwoTBins{}, 128, 16, 16, fastsim.TwoPlusConfig())
}

func BenchmarkQueryExpIncrease(b *testing.B) {
	benchAlgorithm(b, core.ExpIncrease{}, 128, 16, 16, fastsim.DefaultConfig())
}

func BenchmarkQueryABNS(b *testing.B) {
	benchAlgorithm(b, core.ABNS{P0: 2}, 128, 16, 16, fastsim.DefaultConfig())
}

func BenchmarkQueryProbABNS(b *testing.B) {
	benchAlgorithm(b, core.ProbABNS{}, 128, 16, 16, fastsim.DefaultConfig())
}

func BenchmarkQueryLargeNetwork(b *testing.B) {
	benchAlgorithm(b, core.ProbABNS{}, 4096, 64, 80, fastsim.DefaultConfig())
}

func BenchmarkBaselineCSMA(b *testing.B) {
	root := rng.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := root.Split(uint64(i))
		baseline.CSMA{}.Run(128, 16, 32, r.Split(2), nil)
	}
}

func BenchmarkBaselineSequential(b *testing.B) {
	root := rng.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := root.Split(uint64(i))
		pos := idset.NewDense(128)
		for _, id := range r.Split(1).Sample(128, 32) {
			pos.Add(id)
		}
		baseline.Sequential{}.Run(128, 16, pos, r.Split(2), nil)
	}
}

// BenchmarkPacketLevel runs 2tBins over the full packet radio (backcast),
// the abl-packet validation substrate.
func BenchmarkPacketLevel(b *testing.B) {
	root := rng.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := root.Split(uint64(i))
		parts := make([]*pollcast.Participant, 64)
		for id := range parts {
			parts[id] = &pollcast.Participant{ID: id}
		}
		for _, id := range r.Split(1).Sample(64, 8) {
			parts[id].Positive = true
		}
		med := radio.NewMedium(radio.Config{}, r.Split(2))
		sess, err := pollcast.NewSession(med, 1<<16, parts, pollcast.Backcast, query.OnePlus)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := (core.TwoTBins{}).Run(sess, 64, 8, r.Split(3)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMoteTestbed runs one full mote-lab batch per iteration.
func BenchmarkMoteTestbed(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lab, err := motelab.New(motelab.Config{Participants: 12, MissProb: 0.05, Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := lab.RunBatch(4, 6, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetector measures the O(1) bimodal detector.
func BenchmarkDetector(b *testing.B) {
	det, err := NewDetector(128, 8, 2, 96, 4, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	var positives []int
	for i := 0; i < 96; i++ {
		positives = append(positives, i)
	}
	nw, err := NewNetwork(128, positives, WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Detect(nw)
	}
}
