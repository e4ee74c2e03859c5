package count

// Robustness of identification and estimation under the radio faults the
// paper discusses: reply loss (false negatives) and interference false
// activity (pollcast's exposure).

import (
	"testing"

	"tcast/internal/fastsim"
	"tcast/internal/rng"
)

func TestIdentifyUnderLossOnlyMisses(t *testing.T) {
	// Reply loss can hide positives but never invent them: the
	// identified set must always be a subset of the ground truth.
	cfg := fastsim.DefaultConfig()
	cfg.MissProb = 0.3
	root := rng.New(1)
	missedSomething := false
	for i := 0; i < 100; i++ {
		r := root.Split(uint64(i))
		ch, truth := fastsim.RandomPositives(64, 12, cfg, r.Split(1))
		got, _, err := Identify(ch, 64, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range got {
			if !truth.Contains(id) {
				t.Fatalf("trial %d: identified non-positive %d", i, id)
			}
		}
		if len(got) < 12 {
			missedSomething = true
		}
	}
	if !missedSomething {
		t.Fatal("30% loss never hid a positive — loss path not exercised")
	}
}

func TestIdentifyUnderFalseActivityOvercounts(t *testing.T) {
	// Interference false activity makes empty singletons look positive:
	// CCA-based identification overcounts, the dual failure mode. This
	// is why identification should ride backcast, not pollcast, in
	// noisy fields.
	cfg := fastsim.DefaultConfig()
	cfg.FalseActiveProb = 0.3
	root := rng.New(2)
	overcounted := false
	for i := 0; i < 50; i++ {
		r := root.Split(uint64(i))
		ch, _ := fastsim.RandomPositives(64, 4, cfg, r.Split(1))
		got, _, err := Identify(ch, 64, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) > 4 {
			overcounted = true
			break
		}
	}
	if !overcounted {
		t.Fatal("interference never inflated the identified set")
	}
}

func TestEstimateUnderModerateLossStaysInBand(t *testing.T) {
	// Per-reply loss thins probe responses; the estimate biases low but
	// must stay within a small factor for moderate loss.
	cfg := fastsim.DefaultConfig()
	cfg.MissProb = 0.1
	root := rng.New(3)
	const n, x, trials = 256, 64, 40
	var sum float64
	for i := 0; i < trials; i++ {
		r := root.Split(uint64(i))
		ch, _ := fastsim.RandomPositives(n, x, cfg, r.Split(1))
		xHat, _ := Estimate(ch, members(n), EstimateOptions{Repeats: 32}, r.Split(2), nil)
		sum += xHat
	}
	mean := sum / trials
	if mean < float64(x)/3 || mean > float64(x)*3 {
		t.Fatalf("mean estimate %v under 10%% loss, truth %d", mean, x)
	}
}
