package radio

import (
	"math"
	"testing"
	"testing/quick"

	"tcast/internal/rng"
	"tcast/internal/timing"
)

func perfect() Config { return Config{} }

func slot(m *Medium, frames ...Frame) {
	m.BeginSlot()
	for _, f := range frames {
		m.Transmit(f)
	}
}

func TestSilentSlot(t *testing.T) {
	m := NewMedium(perfect(), rng.New(1))
	slot(m)
	obs := m.Observe(0)
	m.EndSlot()
	if obs.Energy || obs.Frame != nil || obs.Superposed != 0 {
		t.Fatalf("silent slot observed %+v", obs)
	}
}

func TestSingleFrameDecodes(t *testing.T) {
	m := NewMedium(perfect(), rng.New(2))
	slot(m, Frame{Kind: FrameVote, Src: 3, Dst: Broadcast})
	obs := m.Observe(0)
	m.EndSlot()
	if !obs.Energy || obs.Frame == nil || obs.Frame.Src != 3 || obs.Superposed != 1 {
		t.Fatalf("single frame observed %+v", obs)
	}
}

func TestOwnTransmissionNotHeard(t *testing.T) {
	m := NewMedium(perfect(), rng.New(3))
	slot(m, Frame{Kind: FrameVote, Src: 5})
	obs := m.Observe(5)
	m.EndSlot()
	if obs.Energy || obs.Frame != nil {
		t.Fatalf("transmitter heard itself: %+v", obs)
	}
}

func TestDistinctCollisionNoCapture(t *testing.T) {
	m := NewMedium(perfect(), rng.New(4))
	for i := 0; i < 50; i++ {
		slot(m, Frame{Kind: FrameVote, Src: 1}, Frame{Kind: FrameVote, Src: 2})
		obs := m.Observe(0)
		m.EndSlot()
		if !obs.Energy {
			t.Fatal("collision slot shows no energy")
		}
		if obs.Frame != nil {
			t.Fatal("distinct collision decoded")
		}
	}
}

func TestIdenticalHACKsSuperpose(t *testing.T) {
	m := NewMedium(perfect(), rng.New(6))
	slot(m,
		Frame{Kind: FrameHACK, Src: 1, Addr: 0xBEEF, Seq: 7},
		Frame{Kind: FrameHACK, Src: 2, Addr: 0xBEEF, Seq: 7},
		Frame{Kind: FrameHACK, Src: 3, Addr: 0xBEEF, Seq: 7})
	obs := m.Observe(0)
	m.EndSlot()
	if obs.Frame == nil || obs.Frame.Kind != FrameHACK {
		t.Fatalf("superposed HACKs not decoded: %+v", obs)
	}
	if obs.Superposed != 3 {
		t.Fatalf("Superposed = %d, want 3", obs.Superposed)
	}
}

func TestMismatchedHACKsCollide(t *testing.T) {
	m := NewMedium(perfect(), rng.New(7))
	slot(m,
		Frame{Kind: FrameHACK, Src: 1, Addr: 0xBEEF, Seq: 7},
		Frame{Kind: FrameHACK, Src: 2, Addr: 0xBEEF, Seq: 8}) // different Seq
	obs := m.Observe(0)
	m.EndSlot()
	if obs.Frame != nil {
		t.Fatal("non-identical HACKs decoded")
	}
	if !obs.Energy {
		t.Fatal("no energy from colliding HACKs")
	}
}

func TestHACKLossPerCopy(t *testing.T) {
	// P(all k copies missed) = MissProb^k: the testbed's error-rate
	// behaviour.
	cfg := Config{MissProb: 0.3}
	m := NewMedium(cfg, rng.New(8))
	missed := func(k int) float64 {
		misses := 0
		const trials = 20000
		for i := 0; i < trials; i++ {
			m.BeginSlot()
			for s := 0; s < k; s++ {
				m.Transmit(Frame{Kind: FrameHACK, Src: s + 1, Addr: 1, Seq: 1})
			}
			obs := m.Observe(0)
			m.EndSlot()
			if obs.Frame == nil {
				misses++
			}
		}
		return float64(misses) / trials
	}
	if r1 := missed(1); math.Abs(r1-0.3) > 0.02 {
		t.Fatalf("k=1 miss rate %v, want ~0.3", r1)
	}
	if r3 := missed(3); math.Abs(r3-0.027) > 0.01 {
		t.Fatalf("k=3 miss rate %v, want ~0.027", r3)
	}
}

func TestPerLinkLoss(t *testing.T) {
	// Node 1 has a clean link, node 2 a terrible one: their miss rates
	// must reflect it.
	cfg := Config{MissProbFor: func(src int) float64 {
		if src == 2 {
			return 0.6
		}
		return 0
	}}
	m := NewMedium(cfg, rng.New(20))
	missed := func(src int) float64 {
		misses := 0
		const trials = 5000
		for i := 0; i < trials; i++ {
			slot(m, Frame{Kind: FrameHACK, Src: src, Addr: 1, Seq: 1})
			if m.Observe(0).Frame == nil {
				misses++
			}
			m.EndSlot()
		}
		return float64(misses) / trials
	}
	if r := missed(1); r != 0 {
		t.Fatalf("clean link missed %v", r)
	}
	if r := missed(2); math.Abs(r-0.6) > 0.03 {
		t.Fatalf("bad link miss rate %v, want ~0.6", r)
	}
}

func TestPerLinkLossOverridesUniform(t *testing.T) {
	cfg := Config{MissProb: 0.9, MissProbFor: func(int) float64 { return 0 }}
	m := NewMedium(cfg, rng.New(21))
	for i := 0; i < 100; i++ {
		slot(m, Frame{Kind: FrameVote, Src: 1})
		obs := m.Observe(0)
		m.EndSlot()
		if obs.Frame == nil {
			t.Fatal("MissProbFor did not override MissProb")
		}
	}
}

func TestControlFramesReliableByDefault(t *testing.T) {
	cfg := Config{MissProb: 0.9}
	m := NewMedium(cfg, rng.New(9))
	for i := 0; i < 100; i++ {
		slot(m, Frame{Kind: FramePoll, Src: 0, Dst: Broadcast})
		obs := m.Observe(1)
		m.EndSlot()
		if obs.Frame == nil {
			t.Fatal("control frame lost")
		}
	}
}

func TestInterferenceEnergyOnly(t *testing.T) {
	cfg := Config{InterferenceProb: 1}
	m := NewMedium(cfg, rng.New(11))
	slot(m)
	obs := m.Observe(0)
	m.EndSlot()
	if !obs.Energy || obs.Frame != nil {
		t.Fatalf("interference-only slot: %+v", obs)
	}
}

func TestInterferenceJamsDecoding(t *testing.T) {
	cfg := Config{InterferenceProb: 1, InterferenceJams: true}
	m := NewMedium(cfg, rng.New(12))
	slot(m, Frame{Kind: FrameHACK, Src: 1, Addr: 1, Seq: 1})
	obs := m.Observe(0)
	m.EndSlot()
	if obs.Frame != nil {
		t.Fatal("jammed slot still decoded")
	}
	if !obs.Energy {
		t.Fatal("jammed slot shows no energy")
	}
}

func TestInterferenceWithoutJamStillDecodes(t *testing.T) {
	cfg := Config{InterferenceProb: 1, InterferenceJams: false}
	m := NewMedium(cfg, rng.New(13))
	slot(m, Frame{Kind: FrameHACK, Src: 1, Addr: 1, Seq: 1})
	obs := m.Observe(0)
	m.EndSlot()
	if obs.Frame == nil {
		t.Fatal("non-jamming interference destroyed the HACK")
	}
}

func TestSlotProtocolPanics(t *testing.T) {
	m := NewMedium(perfect(), rng.New(14))
	for name, f := range map[string]func(){
		"transmit-outside": func() { m.Transmit(Frame{}) },
		"observe-outside":  func() { m.Observe(0) },
		"end-outside":      func() { m.EndSlot() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
	m.BeginSlot()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nested BeginSlot did not panic")
			}
		}()
		m.BeginSlot()
	}()
}

func TestSlotCounter(t *testing.T) {
	m := NewMedium(perfect(), rng.New(15))
	if m.Slot() != 0 {
		t.Fatal("initial slot not 0")
	}
	for i := 1; i <= 5; i++ {
		m.BeginSlot()
		if m.Slot() != i {
			t.Fatalf("slot = %d, want %d", m.Slot(), i)
		}
		m.EndSlot()
	}
}

func TestElapsedClock(t *testing.T) {
	m := NewMedium(perfect(), rng.New(30))
	if m.Elapsed() != 0 {
		t.Fatal("fresh medium has elapsed time")
	}
	// Idle slot: one backoff period.
	slot(m)
	m.EndSlot()
	if got := m.Elapsed(); got != timing.BackoffSlot {
		t.Fatalf("idle slot elapsed %v, want %v", got, timing.BackoffSlot)
	}
	// HACK slot: 352µs ack + turnaround.
	slot(m, Frame{Kind: FrameHACK, Src: 1, Addr: 1, Seq: 1})
	m.EndSlot()
	want := timing.BackoffSlot + timing.AckAirtime() + timing.Turnaround
	if got := m.Elapsed(); got != want {
		t.Fatalf("after HACK slot elapsed %v, want %v", got, want)
	}
	// Busy slot lasts its LONGEST frame.
	slot(m,
		Frame{Kind: FrameVote, Src: 1, Bytes: 2},
		Frame{Kind: FramePoll, Src: 2, Bytes: 40})
	m.EndSlot()
	want += timing.FrameAirtime(40) + timing.Turnaround
	if got := m.Elapsed(); got != want {
		t.Fatalf("mixed slot elapsed %v, want %v", got, want)
	}
}

func TestFrameAirtimeByKind(t *testing.T) {
	if got := (Frame{Kind: FrameHACK, Bytes: 99}).Airtime(); got != timing.AckAirtime() {
		t.Fatalf("HACK airtime %v ignores fixed ACK size", got)
	}
	if got := (Frame{Kind: FrameVote, Bytes: 2}).Airtime(); got != timing.FrameAirtime(2) {
		t.Fatalf("vote airtime %v", got)
	}
}

func TestFrameKindString(t *testing.T) {
	want := map[FrameKind]string{
		FrameData: "data", FramePoll: "poll", FrameVote: "vote",
		FrameHACK: "hack", FrameSchedule: "schedule", FrameKind(9): "FrameKind(9)",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
}

// TestQuickObservationConsistency: decoded frames always carry energy, and
// Superposed is positive exactly when a frame decodes.
func TestQuickObservationConsistency(t *testing.T) {
	f := func(seed uint64, kRaw uint8, miss bool) bool {
		var cfg Config
		if miss {
			cfg.MissProb = 0.4
		}
		m := NewMedium(cfg, rng.New(seed))
		k := int(kRaw % 6)
		m.BeginSlot()
		for i := 0; i < k; i++ {
			m.Transmit(Frame{Kind: FrameVote, Src: i + 1})
		}
		obs := m.Observe(0)
		m.EndSlot()
		if obs.Frame != nil && (!obs.Energy || obs.Superposed < 1) {
			return false
		}
		if obs.Frame == nil && obs.Superposed != 0 {
			return false
		}
		if k == 0 && obs.Energy {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestObserveDoesNotAllocate pins the medium's reusable scratch: resolving
// a slot allocates nothing, whether its frames superpose or collide.
func TestObserveDoesNotAllocate(t *testing.T) {
	for name, frames := range map[string][]Frame{
		"identical HACKs": {{Kind: FrameHACK, Src: 1, Addr: 7, Seq: 3}, {Kind: FrameHACK, Src: 2, Addr: 7, Seq: 3}, {Kind: FrameHACK, Src: 3, Addr: 7, Seq: 3}},
		"distinct frames": {{Kind: FramePoll, Src: 9, Dst: Broadcast}, {Kind: FrameVote, Src: 1}, {Kind: FrameVote, Src: 2}},
	} {
		m := NewMedium(Config{MissProb: 0.5}, rng.New(1))
		decoded := 0
		allocs := testing.AllocsPerRun(100, func() {
			slot(m, frames...)
			if m.Observe(0).Frame != nil {
				decoded++
			}
			m.EndSlot()
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per observed slot, want 0", name, allocs)
		}
		if decoded == 0 {
			t.Errorf("%s: no slot decoded, so the decode path went unmeasured", name)
		}
	}
}
