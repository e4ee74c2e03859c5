package query

import (
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		Empty: "empty", Active: "active", Decoded: "decoded",
		Collision: "collision", Kind(99): "Kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestCollisionModelString(t *testing.T) {
	if OnePlus.String() != "1+" || TwoPlus.String() != "2+" {
		t.Fatal("model names wrong")
	}
	if CollisionModel(5).String() != "CollisionModel(5)" {
		t.Fatal("unknown model name wrong")
	}
}

func TestMinPositives(t *testing.T) {
	cases := []struct {
		r    Response
		want int
	}{
		{Response{Kind: Empty}, 0},
		{Response{Kind: Active}, 1},
		{Response{Kind: Decoded, DecodedID: 3}, 1},
		{Response{Kind: Collision}, 2},
		{Response{Kind: Kind(42)}, 0},
	}
	for _, c := range cases {
		if got := c.r.MinPositives(); got != c.want {
			t.Errorf("MinPositives(%v) = %d, want %d", c.r.Kind, got, c.want)
		}
	}
}

// stubQuerier returns canned responses.
type stubQuerier struct {
	resp   Response
	traits Traits
	bins   [][]int
}

func (s *stubQuerier) Query(bin []int) Response {
	s.bins = append(s.bins, bin)
	return s.resp
}
func (s *stubQuerier) Traits() Traits { return s.traits }

func TestNewKnowledge(t *testing.T) {
	k := NewKnowledge(10, 3)
	if k.Candidates.Len() != 10 || k.Confirmed != 0 || k.Threshold != 3 {
		t.Fatal("initial knowledge wrong")
	}
	if k.UpperBound() != 10 || k.LowerBound() != 0 {
		t.Fatal("initial bounds wrong")
	}
	if _, decided := k.Decision(); decided {
		t.Fatal("fresh session already decided")
	}
}

func TestNewKnowledgePanicsOnNegativeThreshold(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewKnowledge(5, -1)
}

func TestZeroThresholdImmediatelyTrue(t *testing.T) {
	k := NewKnowledge(5, 0)
	ans, decided := k.Decision()
	if !decided || !ans {
		t.Fatal("t=0 must be trivially true")
	}
}

func TestApplyEmptyRemovesBin(t *testing.T) {
	k := NewKnowledge(10, 2)
	k.StartRound()
	k.Apply([]int{1, 3, 5}, Response{Kind: Empty}, Traits{})
	if k.Candidates.Len() != 7 {
		t.Fatalf("candidates = %d, want 7", k.Candidates.Len())
	}
	for _, id := range []int{1, 3, 5} {
		if k.Candidates.Contains(id) {
			t.Fatalf("node %d not removed", id)
		}
	}
	if k.roundLB != 0 {
		t.Fatal("empty bin raised the lower bound")
	}
}

func TestApplyActiveRaisesLowerBound(t *testing.T) {
	k := NewKnowledge(10, 2)
	k.StartRound()
	k.Apply([]int{0, 1}, Response{Kind: Active}, Traits{Model: OnePlus})
	if k.roundLB != 1 || k.Candidates.Len() != 10 {
		t.Fatal("active bin handling wrong")
	}
	k.Apply([]int{2, 3}, Response{Kind: Active}, Traits{Model: OnePlus})
	ans, decided := k.Decision()
	if !decided || !ans {
		t.Fatal("two active bins with t=2 must decide true")
	}
}

func TestApplyCollisionCountsTwo(t *testing.T) {
	k := NewKnowledge(10, 2)
	k.StartRound()
	k.Apply([]int{0, 1, 2}, Response{Kind: Collision}, Traits{Model: TwoPlus, CaptureEffect: true})
	if k.roundLB != 2 {
		t.Fatalf("lower bound = %d, want 2", k.roundLB)
	}
	ans, decided := k.Decision()
	if !decided || !ans {
		t.Fatal("collision with t=2 must decide true")
	}
}

func TestApplyDecodedWithCapture(t *testing.T) {
	k := NewKnowledge(10, 3)
	k.StartRound()
	k.Apply([]int{4, 5, 6}, Response{Kind: Decoded, DecodedID: 5},
		Traits{Model: TwoPlus, CaptureEffect: true})
	if k.Confirmed != 1 {
		t.Fatalf("Confirmed = %d, want 1", k.Confirmed)
	}
	if k.Candidates.Contains(5) {
		t.Fatal("decoded node still a candidate")
	}
	// With capture effect, nodes 4 and 6 may still be positive.
	if !k.Candidates.Contains(4) || !k.Candidates.Contains(6) {
		t.Fatal("capture-effect decode wrongly excluded bin mates")
	}
	if k.roundLB != 0 {
		t.Fatal("decode must move evidence into Confirmed, not the round bound")
	}
	if k.LowerBound() != 1 {
		t.Fatalf("LowerBound = %d, want 1", k.LowerBound())
	}
}

func TestApplyDecodedWithoutCaptureExcludesBin(t *testing.T) {
	k := NewKnowledge(10, 3)
	k.StartRound()
	k.Apply([]int{4, 5, 6}, Response{Kind: Decoded, DecodedID: 5},
		Traits{Model: TwoPlus, CaptureEffect: false})
	if k.Candidates.Contains(4) || k.Candidates.Contains(6) {
		t.Fatal("no-capture decode must prove bin mates negative")
	}
	if k.Confirmed != 1 {
		t.Fatalf("Confirmed = %d", k.Confirmed)
	}
}

func TestConfirmedPersistsAcrossRounds(t *testing.T) {
	k := NewKnowledge(10, 2)
	k.StartRound()
	k.Apply([]int{0}, Response{Kind: Decoded, DecodedID: 0},
		Traits{Model: TwoPlus, CaptureEffect: true})
	k.Apply([]int{1, 2}, Response{Kind: Active}, Traits{Model: TwoPlus, CaptureEffect: true})
	if k.LowerBound() != 2 {
		t.Fatalf("LowerBound = %d, want 2", k.LowerBound())
	}
	k.StartRound() // new round: bin evidence resets, confirmed survives
	if k.LowerBound() != 1 {
		t.Fatalf("after StartRound LowerBound = %d, want 1", k.LowerBound())
	}
}

func TestDecisionImpossible(t *testing.T) {
	k := NewKnowledge(4, 3)
	k.StartRound()
	k.Apply([]int{0, 1}, Response{Kind: Empty}, Traits{})
	ans, decided := k.Decision()
	if !decided || ans {
		t.Fatal("2 candidates < t=3 must decide false")
	}
}

func TestApplyPanicsOnUnknownKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewKnowledge(4, 2).Apply([]int{0}, Response{Kind: Kind(9)}, Traits{})
}

// TestQuickBoundsInvariant: under arbitrary response sequences the bounds
// stay ordered and within [0, n].
func TestQuickBoundsInvariant(t *testing.T) {
	f := func(ops []uint8) bool {
		const n = 32
		k := NewKnowledge(n, 5)
		k.StartRound()
		next := 0
		for _, op := range ops {
			if next >= n {
				break
			}
			bin := []int{next, (next + 1) % n}
			switch op % 5 {
			case 0:
				k.Apply(bin, Response{Kind: Empty}, Traits{})
			case 1:
				k.Apply(bin, Response{Kind: Active}, Traits{})
			case 2:
				k.Apply(bin, Response{Kind: Collision}, Traits{})
			case 3:
				if k.Candidates.Contains(next) {
					k.Apply(bin, Response{Kind: Decoded, DecodedID: next},
						Traits{CaptureEffect: true})
				}
			case 4:
				k.StartRound()
			}
			next++
			if k.Confirmed < 0 || k.Confirmed > n {
				return false
			}
			if k.UpperBound() < k.Confirmed || k.UpperBound() > n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestKindCountsPartition(t *testing.T) {
	var c KindCounts
	seq := []Kind{Empty, Active, Active, Decoded, Collision, Collision, Collision, Empty}
	for _, k := range seq {
		c.Observe(k)
	}
	if c.Empty != 2 || c.Active != 2 || c.Decoded != 1 || c.Collisions != 3 {
		t.Fatalf("counts = %+v", c)
	}
	if c.Total() != len(seq) {
		t.Fatalf("Total = %d, want %d", c.Total(), len(seq))
	}
}

// TestKindCountsObservePanicsOnBogusKind: an out-of-range kind is a
// substrate bug; Observe must refuse it loudly rather than let the
// partition drift away from the number of polls issued.
func TestKindCountsObservePanicsOnBogusKind(t *testing.T) {
	var c KindCounts
	defer func() {
		if recover() == nil {
			t.Fatal("Observe(Kind(99)) did not panic")
		}
		if c.Total() != 0 {
			t.Fatalf("Total = %d after rejected observation", c.Total())
		}
	}()
	c.Observe(Kind(99))
}

func TestMaxPositives(t *testing.T) {
	bin := []int{3, 7, 9}
	cases := []struct {
		r      Response
		traits Traits
		want   int
	}{
		{Response{Kind: Empty}, Traits{}, 0},
		{Response{Kind: Active}, Traits{}, 3},
		{Response{Kind: Collision}, Traits{Model: TwoPlus}, 3},
		// A capture-free decode proves exactly one replier...
		{Response{Kind: Decoded, DecodedID: 7}, Traits{Model: TwoPlus}, 1},
		// ...but with capture, further positives may hide behind it.
		{Response{Kind: Decoded, DecodedID: 7}, Traits{Model: TwoPlus, CaptureEffect: true}, 3},
	}
	for _, c := range cases {
		if got := c.r.MaxPositives(bin, c.traits); got != c.want {
			t.Errorf("MaxPositives(%v, %+v) = %d, want %d", c.r.Kind, c.traits, got, c.want)
		}
		if got := c.r.MaxPositives(bin, c.traits); got < c.r.MinPositives() && c.r.Kind != Collision {
			t.Errorf("%v: MaxPositives %d < MinPositives %d", c.r.Kind, got, c.r.MinPositives())
		}
	}
	// On a singleton bin every non-empty response pins the count to 1.
	one := []int{5}
	for _, k := range []Kind{Active, Decoded} {
		if got := (Response{Kind: k, DecodedID: 5}).MaxPositives(one, Traits{CaptureEffect: true}); got != 1 {
			t.Errorf("singleton %v: MaxPositives = %d, want 1", k, got)
		}
	}
}

func TestNumKindsCoversAllKinds(t *testing.T) {
	for k := Kind(0); int(k) < NumKinds; k++ {
		if s := k.String(); len(s) == 0 || s[0] == 'K' { // "Kind(n)" fallback
			t.Fatalf("kind %d has no name: %q", k, s)
		}
	}
}
