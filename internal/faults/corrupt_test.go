package faults

import (
	"strings"
	"testing"

	"tcast/internal/binning"
	"tcast/internal/fastsim"
	"tcast/internal/query"
	"tcast/internal/rng"
)

// decodeQ always decodes the first bin member, so every poll gives the
// corruption process something to corrupt.
type decodeQ struct{}

func (decodeQ) Query(bin []int) query.Response {
	return query.Response{Kind: query.Decoded, DecodedID: bin[0]}
}

func (decodeQ) Traits() query.Traits {
	return query.Traits{Model: query.TwoPlus, CaptureEffect: true}
}

func TestParseSpecCorrupt(t *testing.T) {
	cfg, err := ParseSpec("corrupt=0.25")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.DecodeCorruptProb != 0.25 {
		t.Fatalf("DecodeCorruptProb = %v, want 0.25", cfg.DecodeCorruptProb)
	}
	if !cfg.Active() {
		t.Fatal("corrupt-only config should be active")
	}
	if _, err := ParseSpec("corrupt=1.5"); err == nil {
		t.Fatal("corrupt=1.5 should be rejected")
	}
}

func TestCorruptDecodeForgesID(t *testing.T) {
	const n = 32
	j := New(decodeQ{}, Config{DecodeCorruptProb: 1}, n, rng.New(7))
	resp := j.Query([]int{3, 4})
	if resp.Kind != query.Decoded {
		t.Fatalf("response kind = %v, want decoded", resp.Kind)
	}
	if resp.DecodedID < 0 || resp.DecodedID >= n {
		t.Fatalf("forged ID %d outside population [0,%d)", resp.DecodedID, n)
	}
	if c := j.counts.Corrupted; c != 1 {
		t.Fatalf("Counts().Corrupted = %d, want 1", c)
	}
	if desc := j.Describe(0); !strings.Contains(desc, "decode corrupted") {
		t.Fatalf("Describe(0) = %q, want corruption mention", desc)
	}
}

func TestCorruptDecodeLeavesNonDecodesAlone(t *testing.T) {
	for _, kind := range []query.Kind{query.Empty, query.Active, query.Collision} {
		j := New(&recordQ{resp: query.Response{Kind: kind}}, Config{DecodeCorruptProb: 1}, 8, rng.New(1))
		if resp := j.Query([]int{0}); resp.Kind != kind {
			t.Fatalf("%v response changed to %v", kind, resp.Kind)
		}
		if c := j.counts.Corrupted; c != 0 {
			t.Fatalf("Counts().Corrupted = %d, want 0", c)
		}
	}
}

// Ledger soundness under corrupt decodes: whatever IDs the corruption
// process forges, UpperBound must never grow across an Apply — a ledger can
// only narrow. Before the Knowledge guard, a forged decode naming a
// non-candidate incremented Confirmed without shrinking the candidate set,
// growing the bound past ground truth.
func TestCorruptDecodeLedgerUpperBoundMonotone(t *testing.T) {
	const n, t2, rounds = 48, 6, 12
	guarded := 0
	for seed := uint64(1); seed <= 60; seed++ {
		r := rng.New(seed)
		x := int(seed % 20)
		ch, _ := fastsim.RandomPositives(n, x, fastsim.TwoPlusConfig(), r.Split(1))
		j := New(ch, Config{DecodeCorruptProb: 0.6}, n, r.Split(9))
		k := query.NewKnowledge(n, t2)
		algr := r.Split(2)
		for round := 0; round < rounds; round++ {
			if _, decided := k.Decision(); decided {
				break
			}
			k.StartRound()
			for _, bin := range binning.RandomPartition(k.Candidates.Members(), 2*t2, algr) {
				if len(bin) == 0 {
					continue // node-less bins are never polled
				}
				resp := j.Query(bin)
				if resp.Kind == query.Decoded && !k.Candidates.Contains(resp.DecodedID) {
					guarded++
				}
				before := k.UpperBound()
				k.Apply(bin, resp, j.Traits())
				if after := k.UpperBound(); after > before {
					t.Fatalf("seed %d: UpperBound grew %d -> %d on %v response", seed, before, after, resp.Kind)
				}
				if _, decided := k.Decision(); decided {
					break
				}
			}
		}
	}
	if guarded == 0 {
		t.Fatal("property never exercised the non-candidate decode guard; raise rates or rounds")
	}
}
