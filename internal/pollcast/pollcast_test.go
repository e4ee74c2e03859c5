package pollcast

import (
	"testing"

	"tcast/internal/query"
	"tcast/internal/radio"
	"tcast/internal/rng"
)

const initiatorID = 1000

func makeParts(n int, positives ...int) []*Participant {
	pos := make(map[int]bool)
	for _, p := range positives {
		pos[p] = true
	}
	parts := make([]*Participant, n)
	for i := range parts {
		parts[i] = &Participant{ID: i, Positive: pos[i]}
	}
	return parts
}

func newSession(t *testing.T, cfg radio.Config, seed uint64, prim Primitive, model query.CollisionModel, parts []*Participant) *Session {
	t.Helper()
	med := radio.NewMedium(cfg, rng.New(seed))
	s, err := NewSession(med, initiatorID, parts, prim, model)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPollcastEmptyAndActive(t *testing.T) {
	s := newSession(t, radio.Config{}, 1, Pollcast, query.OnePlus, makeParts(8, 2, 5))
	if r := s.Query([]int{0, 1, 3}); r.Kind != query.Empty {
		t.Fatalf("all-negative bin: %v", r.Kind)
	}
	if r := s.Query([]int{1, 2, 3}); r.Kind != query.Active {
		t.Fatalf("bin with positive: %v", r.Kind)
	}
	if s.Slots() != 4 {
		t.Fatalf("slots = %d, want 4 (2 per query)", s.Slots())
	}
}

func TestPollcastTwoPlusDecodesSingle(t *testing.T) {
	s := newSession(t, radio.Config{}, 2, Pollcast, query.TwoPlus, makeParts(8, 5))
	for i := 0; i < 20; i++ {
		r := s.Query([]int{4, 5, 6})
		if r.Kind != query.Decoded || r.DecodedID != 5 {
			t.Fatalf("lone positive: %+v", r)
		}
	}
}

func TestPollcastTwoPlusCollisionOrCapture(t *testing.T) {
	s := newSession(t, radio.Config{}, 3, Pollcast, query.TwoPlus, makeParts(8, 1, 2))
	decoded, collided := 0, 0
	for i := 0; i < 2000; i++ {
		switch r := s.Query([]int{1, 2}); r.Kind {
		case query.Decoded:
			decoded++
			if r.DecodedID != 1 && r.DecodedID != 2 {
				t.Fatalf("decoded non-voter %d", r.DecodedID)
			}
		case query.Collision:
			collided++
		default:
			t.Fatalf("unexpected kind %v", r.Kind)
		}
	}
	// The medium has no capture effect: two voters always collide.
	if decoded != 0 || collided != 2000 {
		t.Fatalf("decoded=%d collided=%d, want 0/2000", decoded, collided)
	}
}

func TestBackcastEmptyAndActive(t *testing.T) {
	s := newSession(t, radio.Config{}, 4, Backcast, query.OnePlus, makeParts(8, 2, 5))
	if r := s.Query([]int{0, 1, 3}); r.Kind != query.Empty {
		t.Fatalf("all-negative bin: %v", r.Kind)
	}
	if r := s.Query([]int{2, 5}); r.Kind != query.Active {
		t.Fatalf("two positives (superposed HACKs): %v", r.Kind)
	}
	if s.Slots() != 6 {
		t.Fatalf("slots = %d, want 6 (3 per query)", s.Slots())
	}
}

func TestBackcastRejectsTwoPlus(t *testing.T) {
	med := radio.NewMedium(radio.Config{}, rng.New(5))
	if _, err := NewSession(med, initiatorID, makeParts(4), Backcast, query.TwoPlus); err == nil {
		t.Fatal("backcast with 2+ accepted")
	}
}

func TestSessionValidation(t *testing.T) {
	med := radio.NewMedium(radio.Config{}, rng.New(6))
	if _, err := NewSession(med, 3, makeParts(4), Pollcast, query.OnePlus); err == nil {
		t.Fatal("initiator ID collision accepted")
	}
	dup := []*Participant{{ID: 1}, {ID: 1}}
	if _, err := NewSession(med, initiatorID, dup, Pollcast, query.OnePlus); err == nil {
		t.Fatal("duplicate participant accepted")
	}
}

func TestPollcastInterferenceFalsePositive(t *testing.T) {
	// CCA sensing cannot tell interference from votes: pollcast reports
	// Active for an all-negative bin under constant interference.
	cfg := radio.Config{InterferenceProb: 1}
	s := newSession(t, cfg, 7, Pollcast, query.OnePlus, makeParts(8))
	if r := s.Query([]int{0, 1}); r.Kind != query.Active {
		t.Fatalf("pollcast under interference: %v, want false-positive Active", r.Kind)
	}
}

func TestBackcastInterferenceImmunity(t *testing.T) {
	// Section III-B: "the interference cannot yield a false-positive
	// 'non-empty' decision" for backcast.
	cfg := radio.Config{InterferenceProb: 1}
	s := newSession(t, cfg, 8, Backcast, query.OnePlus, makeParts(8))
	for i := 0; i < 50; i++ {
		if r := s.Query([]int{0, 1}); r.Kind != query.Empty {
			t.Fatalf("backcast false positive under interference: %v", r.Kind)
		}
	}
}

func TestBackcastInterferenceFalseNegative(t *testing.T) {
	// ... but jamming interference can hide a real HACK: false
	// negatives remain possible in multihop environments.
	cfg := radio.Config{InterferenceProb: 1, InterferenceJams: true}
	s := newSession(t, cfg, 9, Backcast, query.OnePlus, makeParts(8, 3))
	if r := s.Query([]int{3}); r.Kind != query.Empty {
		t.Fatalf("jammed backcast: %v, want false-negative Empty", r.Kind)
	}
}

func TestBackcastLossyHACKFalseNegativeRate(t *testing.T) {
	// Per-copy loss: single-HACK groups miss far more often than
	// three-HACK groups (the testbed's dominant error mode).
	cfg := radio.Config{MissProb: 0.2}
	s := newSession(t, cfg, 10, Backcast, query.OnePlus, makeParts(8, 1, 2, 3))
	missOne, missThree := 0, 0
	const trials = 3000
	for i := 0; i < trials; i++ {
		if s.Query([]int{1}).Kind == query.Empty {
			missOne++
		}
		if s.Query([]int{1, 2, 3}).Kind == query.Empty {
			missThree++
		}
	}
	if missOne <= missThree*5 {
		t.Fatalf("superposition did not reduce misses: 1-HACK=%d 3-HACK=%d", missOne, missThree)
	}
}

func TestTraits(t *testing.T) {
	p1 := newSession(t, radio.Config{}, 11, Pollcast, query.OnePlus, makeParts(4))
	if tr := p1.Traits(); tr.Model != query.OnePlus || tr.CaptureEffect {
		t.Fatalf("pollcast 1+ traits: %+v", tr)
	}
	p2 := newSession(t, radio.Config{}, 12, Pollcast, query.TwoPlus, makeParts(4))
	if tr := p2.Traits(); tr.Model != query.TwoPlus || tr.CaptureEffect {
		t.Fatalf("lossless pollcast 2+ traits: %+v", tr)
	}
	b := newSession(t, radio.Config{}, 13, Backcast, query.OnePlus, makeParts(4))
	if tr := b.Traits(); tr.Model != query.OnePlus {
		t.Fatalf("backcast traits: %+v", tr)
	}
}

// TestPollcastTwoPlusLosslessDecodeExcludesBin: on a lossless medium a
// decoded vote proves its bin held one positive, so the ledger drops the
// rest of the bin with the decoded node.
func TestPollcastTwoPlusLosslessDecodeExcludesBin(t *testing.T) {
	s := newSession(t, radio.Config{}, 14, Pollcast, query.TwoPlus, makeParts(8, 2))
	k := query.NewKnowledge(8, 2)
	bin := []int{0, 1, 2, 3}
	r := s.Query(bin)
	if r.Kind != query.Decoded || r.DecodedID != 2 {
		t.Fatalf("lone voter: %+v", r)
	}
	k.Apply(bin, r, s.Traits())
	if k.Confirmed != 1 || k.Candidates.Len() != 4 {
		t.Fatalf("confirmed %d, candidates %d; want 1 and 4 (the bin excluded)", k.Confirmed, k.Candidates.Len())
	}
	for _, id := range bin {
		if k.Candidates.Contains(id) {
			t.Errorf("node %d of the decoded bin is still a candidate", id)
		}
	}
}

// TestPollcastTwoPlusLossyKeepsCapture: on a lossy medium loss can thin
// two voters to one surviving copy, which the medium decodes; the 2+
// session keeps the capture trait so a decode excludes nobody else.
func TestPollcastTwoPlusLossyKeepsCapture(t *testing.T) {
	s := newSession(t, radio.Config{MissProb: 0.5}, 15, Pollcast, query.TwoPlus, makeParts(8, 1, 2))
	if tr := s.Traits(); tr.Model != query.TwoPlus || !tr.CaptureEffect {
		t.Fatalf("lossy pollcast 2+ traits: %+v", tr)
	}
	for i := 0; i < 200; i++ {
		r := s.Query([]int{1, 2})
		if r.Kind != query.Decoded {
			continue
		}
		// One of the two voters was lost: the decode hides the other.
		k := query.NewKnowledge(8, 2)
		k.Apply([]int{1, 2}, r, s.Traits())
		other := 3 - r.DecodedID
		if !k.Candidates.Contains(other) {
			t.Fatalf("decode of %d excluded positive %d", r.DecodedID, other)
		}
		return
	}
	t.Fatal("no lone surviving vote in 200 lossy polls")
}

func TestPrimitiveString(t *testing.T) {
	if Pollcast.String() != "pollcast" || Backcast.String() != "backcast" {
		t.Fatal("primitive names wrong")
	}
}

func TestNonParticipantIDsIgnored(t *testing.T) {
	s := newSession(t, radio.Config{}, 14, Pollcast, query.OnePlus, makeParts(4, 2))
	if r := s.Query([]int{77, 99}); r.Kind != query.Empty {
		t.Fatalf("unknown IDs answered: %v", r.Kind)
	}
}

// TestQueryDoesNotAllocate pins the session's reused replier buffer: a
// poll allocates nothing under either primitive.
func TestQueryDoesNotAllocate(t *testing.T) {
	for _, prim := range []Primitive{Pollcast, Backcast} {
		s := newSession(t, radio.Config{MissProb: 0.1}, 15, prim, query.OnePlus, makeParts(12, 1, 4, 7))
		bin := []int{0, 1, 2, 3, 4, 5}
		if allocs := testing.AllocsPerRun(100, func() { s.Query(bin) }); allocs != 0 {
			t.Errorf("%v: %v allocs per poll, want 0", prim, allocs)
		}
	}
}
