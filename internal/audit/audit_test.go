package audit

import (
	"strings"
	"testing"

	"tcast/internal/energy"
	"tcast/internal/faults"
	"tcast/internal/metrics"
	"tcast/internal/query"
	"tcast/internal/rng"
)

// scripted is a querier that replays a fixed response sequence and carries
// its own ground truth, standing in for a (possibly lying) substrate.
type scripted struct {
	truth  map[int]bool
	traits query.Traits
	resps  []query.Response
	i      int
}

func (s *scripted) Query(bin []int) query.Response {
	r := s.resps[s.i]
	s.i++
	return r
}

func (s *scripted) Traits() query.Traits   { return s.traits }
func (s *scripted) IsPositive(id int) bool { return s.truth[id] }

func TestClassify(t *testing.T) {
	truth := TruthFunc(func(id int) bool { return id < 3 }) // 0,1,2 positive
	oneplus := query.Traits{Model: query.OnePlus}
	twoplus := query.Traits{Model: query.TwoPlus}
	twoplusCapture := query.Traits{Model: query.TwoPlus, CaptureEffect: true}
	cases := []struct {
		name   string
		bin    []int
		r      query.Response
		traits query.Traits
		want   Class
	}{
		{"empty over negatives", []int{3, 4}, query.Response{Kind: query.Empty}, oneplus, ClassOK},
		{"empty hides positives", []int{0, 4}, query.Response{Kind: query.Empty}, oneplus, ClassFalseNegative},
		{"active with positives", []int{0, 3}, query.Response{Kind: query.Active}, oneplus, ClassOK},
		{"active over negatives", []int{3, 4}, query.Response{Kind: query.Active}, oneplus, ClassPhantom},
		{"collision needs two", []int{0, 3}, query.Response{Kind: query.Collision}, twoplus, ClassPhantom},
		{"collision with two", []int{0, 1}, query.Response{Kind: query.Collision}, twoplus, ClassOK},
		{"decode of a positive", []int{0, 3}, query.Response{Kind: query.Decoded, DecodedID: 0}, twoplusCapture, ClassOK},
		{"decode of a negative", []int{0, 3}, query.Response{Kind: query.Decoded, DecodedID: 3}, twoplusCapture, ClassCorruptDecode},
		{"decode outside the bin", []int{0, 3}, query.Response{Kind: query.Decoded, DecodedID: 1}, twoplusCapture, ClassCorruptDecode},
		// A capture-free decode claims a singleton bin; two true
		// positives contradict it — positives were hidden.
		{"capture-free decode hides a positive", []int{0, 1}, query.Response{Kind: query.Decoded, DecodedID: 0}, twoplus, ClassFalseNegative},
		{"captured decode may hide positives", []int{0, 1}, query.Response{Kind: query.Decoded, DecodedID: 0}, twoplusCapture, ClassOK},
	}
	for _, c := range cases {
		k := 0
		for _, id := range c.bin {
			if truth.IsPositive(id) {
				k++
			}
		}
		if got := classify(c.bin, c.r, c.traits, truth, k); got != c.want {
			t.Errorf("%s: classify = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestAuditorGradesSession drives a scripted lossy session end to end:
// classification, causal attribution, and the per-node slot ledger.
func TestAuditorGradesSession(t *testing.T) {
	sub := &scripted{
		truth:  map[int]bool{0: true, 1: true, 2: true},
		traits: query.Traits{Model: query.OnePlus},
		resps: []query.Response{
			{Kind: query.Empty},  // [0 1]: both positive — radio false negative
			{Kind: query.Active}, // [2 3]: sound
			{Kind: query.Active}, // [4 5]: all-negative — phantom activity
		},
	}
	reg := metrics.New()
	aud, err := New(sub, Config{N: 6, T: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if aud.trueX != 3 {
		t.Fatalf("TrueX = %d, want 3", aud.trueX)
	}
	if aud.Lossless() {
		t.Fatal("scripted substrate reported lossless")
	}
	aud.TraceRound(1)
	for _, bin := range [][]int{{0, 1}, {2, 3}, {4, 5}} {
		aud.Query(bin)
	}
	v := aud.Finish(false) // wrong: truth has x=3 >= t=2

	if v.Truth != true || v.Decision != false || v.Outcome != OutcomeWrongLoss {
		t.Fatalf("verdict = %+v", v)
	}
	if v.CausalPoll != 0 || v.CausalClass != ClassFalseNegative {
		t.Fatalf("causal poll = %d (%v), want 0 (false_negative)", v.CausalPoll, v.CausalClass)
	}
	want := [NumClasses]int{ClassOK: 1, ClassFalseNegative: 1, ClassPhantom: 1}
	if v.Classes != want {
		t.Fatalf("classes = %v, want %v", v.Classes, want)
	}
	if len(v.Violations) != 0 {
		t.Fatalf("unexpected violations: %v", v.Violations)
	}

	// Ledger: initiator 3 polls tx + 3 reply windows rx; node 0 heard one
	// poll and replied once; node 3 heard one poll and idled one window.
	if v.Initiator != (energy.SlotLedger{Tx: 3, Rx: 3}) {
		t.Fatalf("initiator ledger = %+v", v.Initiator)
	}
	if v.Nodes.At(0) != (energy.SlotLedger{Rx: 1, Tx: 1}) || v.Nodes.At(3) != (energy.SlotLedger{Rx: 1, Idle: 1}) {
		t.Fatalf("node ledgers = %+v", v.Nodes)
	}

	// The audit metrics partition the graded polls and sessions.
	var classSum int64
	for c := Class(0); int(c) < NumClasses; c++ {
		classSum += reg.Counter(MetricAuditPolls, "class", c.String()).Value()
	}
	if classSum != 3 {
		t.Fatalf("audit poll counters sum to %d, want 3", classSum)
	}
	if got := reg.Counter(MetricAuditSessions, "outcome", OutcomeWrongLoss.String()).Value(); got != 1 {
		t.Fatalf("wrong_loss sessions = %d, want 1", got)
	}
}

// TestAuditorInvariantViolations: a lying lossless substrate must trip the
// Knowledge bound checks and the bin-subset check.
func TestAuditorInvariantViolations(t *testing.T) {
	sub := &losslessScripted{scripted{
		truth:  map[int]bool{0: true},
		traits: query.Traits{Model: query.TwoPlus},
		resps: []query.Response{
			{Kind: query.Empty},     // [0]: hides the only positive
			{Kind: query.Empty},     // [1 2 3]: sound, but now UpperBound = 0 < x
			{Kind: query.Collision}, // [1 2]: excluded nodes re-polled; LowerBound = 2 > x
		},
	}}
	aud, err := New(sub, Config{N: 4, T: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !aud.Lossless() {
		t.Fatal("lossless substrate must enable the bound invariants")
	}
	aud.Query([]int{0})
	aud.Query([]int{1, 2, 3})
	aud.Query([]int{1, 2})
	v := aud.Finish(true)

	got := map[Invariant]bool{}
	for _, viol := range v.Violations {
		got[viol.Invariant] = true
	}
	for _, want := range []Invariant{InvariantUpperBound, InvariantLowerBound, InvariantBinSubset} {
		if !got[want] {
			t.Errorf("missing violation %v in %v", want, v.Violations)
		}
	}
	if v.Violations[0].Poll != 1 || v.Violations[0].Invariant != InvariantUpperBound {
		t.Errorf("first violation = %+v, want upper_bound at poll 1", v.Violations[0])
	}
}

// TestAttributeDirections: causal search must respect the error direction —
// a false "x >= t" cannot be explained by a false negative, nor a false
// "x < t" by a phantom.
func TestAttributeDirections(t *testing.T) {
	fn := PollRecord{Class: ClassFalseNegative}
	ph := PollRecord{Class: ClassPhantom}
	ok := PollRecord{Class: ClassOK}
	cases := []struct {
		name     string
		decision bool
		truth    bool
		polls    []PollRecord
		outcome  Outcome
		causal   int
	}{
		{"correct", true, true, []PollRecord{fn, ph}, OutcomeCorrect, -1},
		{"undercount blamed on fn", false, true, []PollRecord{ok, ph, fn}, OutcomeWrongLoss, 2},
		{"undercount with only phantoms", false, true, []PollRecord{ph, ok}, OutcomeWrongAlgorithm, -1},
		{"overcount blamed on phantom", true, false, []PollRecord{fn, ph}, OutcomeWrongLoss, 1},
		{"overcount with only fns", true, false, []PollRecord{fn, ok}, OutcomeWrongAlgorithm, -1},
		{"wrong with clean polls", false, true, []PollRecord{ok, ok}, OutcomeWrongAlgorithm, -1},
	}
	for _, c := range cases {
		outcome, causal := attribute(c.decision, c.truth, c.polls)
		if outcome != c.outcome || causal != c.causal {
			t.Errorf("%s: attribute = (%v, %d), want (%v, %d)", c.name, outcome, causal, c.outcome, c.causal)
		}
	}
}

func TestGradeReplay(t *testing.T) {
	truth := TruthFunc(func(id int) bool { return id == 1 || id == 2 })
	traits := query.Traits{Model: query.OnePlus}
	polls := []ReplayPoll{
		{Bin: []int{0, 3}, Resp: query.Response{Kind: query.Empty}},  // sound
		{Bin: []int{1, 2}, Resp: query.Response{Kind: query.Empty}},  // missed both
		{Bin: []int{4, 5}, Resp: query.Response{Kind: query.Active}}, // phantom
	}
	v := GradeReplay(2, 2, truth, traits, polls, false)
	if v.Outcome != OutcomeWrongLoss || v.CausalPoll != 1 || v.CausalClass != ClassFalseNegative {
		t.Fatalf("verdict = %+v", v)
	}
	correct := GradeReplay(2, 2, truth, traits, polls[:1], true)
	if correct.Outcome != OutcomeCorrect || correct.CausalPoll != -1 {
		t.Fatalf("correct verdict = %+v", correct)
	}
}

func TestCollector(t *testing.T) {
	var c Collector
	c.Add("a", Verdict{Outcome: OutcomeCorrect, Polls: 5, Classes: [NumClasses]int{ClassOK: 5}})
	c.Add("b", Verdict{
		Outcome: OutcomeWrongLoss, CausalPoll: 2, CausalClass: ClassFalseNegative, Polls: 3,
		Classes:    [NumClasses]int{ClassOK: 2, ClassFalseNegative: 1},
		Violations: []Violation{{Poll: 1, Invariant: InvariantBinSubset}},
	})
	c.AddDecision("mote-1", true, true)
	c.AddDecision("mote-2", true, false)

	s := c.Stats()
	if s.Sessions != 4 || s.Polls != 8 {
		t.Fatalf("sessions=%d polls=%d", s.Sessions, s.Polls)
	}
	if s.Outcomes[OutcomeCorrect] != 2 || s.Outcomes[OutcomeWrongLoss] != 1 || s.Outcomes[OutcomeWrongUnattributed] != 1 {
		t.Fatalf("outcomes = %v", s.Outcomes)
	}
	if s.Violations() != 1 || s.Accuracy() != 0.5 {
		t.Fatalf("violations=%d accuracy=%v", s.Violations(), s.Accuracy())
	}
	if len(s.Wrong) != 2 || s.Wrong[0].Session != "b" || s.Wrong[0].CausalPoll != 2 {
		t.Fatalf("wrong = %+v", s.Wrong)
	}

	sum := c.Summary()
	for _, want := range []string{"4 sessions", "wrong_loss=1", "false_negative=1", "causal poll 2", "mote-2"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
	var empty Collector
	if empty.Stats().Accuracy() != 1 {
		t.Fatal("empty collector accuracy != 1")
	}
}

// layer is a middleware over a substrate, standing in for the
// observability and fault layers.
type layer struct{ query.Querier }

func (l layer) Unwrap() query.Querier { return l.Querier }

func TestNewDiscoversNothing(t *testing.T) {
	// The ground truth is found at the root of the middleware chain; a
	// substrate with no ground truth must be rejected.
	q := layer{&scripted{truth: map[int]bool{}, resps: []query.Response{{Kind: query.Empty}}}}
	if _, err := New(q, Config{N: 2, T: 1}); err != nil {
		t.Fatalf("discovery through Wrapper failed: %v", err)
	}
	type bare struct{ query.Querier }
	if _, err := New(bare{&scripted{}}, Config{N: 2, T: 1}); err == nil {
		t.Fatal("expected error for a substrate without ground truth")
	}
}

// losslessScripted is a scripted substrate that reports itself lossless,
// standing in for the packet-level medium with MissProb=0.
type losslessScripted struct{ scripted }

func (s *losslessScripted) Lossless() bool { return true }

func TestNewLosslessWalksWholeChain(t *testing.T) {
	mk := func() *losslessScripted {
		return &losslessScripted{scripted{
			truth: map[int]bool{0: true},
			resps: []query.Response{{Kind: query.Empty}},
		}}
	}

	// Bare lossless substrate: bound invariants on.
	a, err := New(mk(), Config{N: 2, T: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Lossless() {
		t.Fatal("lossless substrate must enable the bound invariants")
	}

	// An active fault injector above the same substrate can drop replies;
	// its Lossless()=false must veto even though the root is lossless.
	inj := faults.New(mk(), faults.Config{SkewProb: 0.5}, 2, rng.New(1))
	a, err = New(inj, Config{N: 2, T: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.Lossless() {
		t.Fatal("active injector above a lossless substrate must stand the bound invariants down")
	}

	// A zero-config injector is transparent: losslessness survives.
	inj = faults.New(mk(), faults.Config{}, 2, rng.New(1))
	a, err = New(inj, Config{N: 2, T: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Lossless() {
		t.Fatal("inactive injector must preserve the substrate's losslessness")
	}
}
