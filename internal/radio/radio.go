// Package radio models the single-hop 802.15.4 medium the packet-level
// simulations run on: a slot-synchronous broadcast channel with
// CCA-style energy sensing, per-copy reception loss (the CC2420 "radio
// irregularities" behind the testbed's false negatives), colliding
// distinct frames that never decode, and the nondestructive
// superposition of identical hardware acknowledgements that backcast
// exploits ("Wireless ACK collisions not considered harmful").
package radio

import (
	"fmt"
	"time"

	"tcast/internal/rng"
	"tcast/internal/timing"
	"tcast/internal/trace"
)

// FrameKind classifies frames on the medium.
type FrameKind int

const (
	// FrameData is a generic payload frame.
	FrameData FrameKind = iota
	// FramePoll is an initiator's group poll (pollcast phase 1 /
	// backcast phase 2).
	FramePoll
	// FrameVote is a participant's predicate reply (pollcast phase 2).
	FrameVote
	// FrameHACK is an 802.15.4 hardware acknowledgement. HACKs with the
	// same (Addr, Seq) are bit-identical and superpose nondestructively.
	FrameHACK
	// FrameSchedule carries a TDMA reply schedule.
	FrameSchedule
)

// String implements fmt.Stringer.
func (k FrameKind) String() string {
	switch k {
	case FrameData:
		return "data"
	case FramePoll:
		return "poll"
	case FrameVote:
		return "vote"
	case FrameHACK:
		return "hack"
	case FrameSchedule:
		return "schedule"
	default:
		return fmt.Sprintf("FrameKind(%d)", int(k))
	}
}

// Broadcast is the Dst value addressing every node in range.
const Broadcast = -1

// Frame is one transmission.
type Frame struct {
	Kind FrameKind
	// Src is the transmitting node, Dst the addressed node or
	// Broadcast.
	Src, Dst int
	// Addr is the 16-bit hardware address the frame is directed at —
	// backcast's ephemeral group identifier.
	Addr uint16
	// Seq is the 802.15.4 sequence number; HACKs for the same Seq are
	// identical.
	Seq uint8
	// Bytes is the payload length on air; the medium's clock charges
	// SHR+PHR+MAC overhead plus this many payload bytes (HACKs are
	// fixed-size ACK frames regardless).
	Bytes int
}

// Airtime returns the frame's on-air duration under the 802.15.4 timing
// model.
func (f Frame) Airtime() time.Duration {
	if f.Kind == FrameHACK {
		return timing.AckAirtime()
	}
	return timing.FrameAirtime(f.Bytes)
}

// Lossy reports whether the per-copy reception loss applies to this frame
// kind. Control traffic (polls, schedules, data) is modeled as reliable —
// initiators transmit it at full power and the testbed reports
// no errors on it — while simultaneous votes/HACKs ride on superposition
// and suffer MissProb per copy. Exported so medium middleware (the faults
// layer) applies the same kind partition.
func (f Frame) Lossy() bool { return f.Kind == FrameVote || f.Kind == FrameHACK }

// Observation is what one receiver's radio reports for one slot.
type Observation struct {
	// Energy is the CCA result: true if any transmission or external
	// interference put energy on the channel during the slot.
	Energy bool
	// Frame is the decoded frame, if the radio locked onto one.
	Frame *Frame
	// Superposed is the number of identical HACK copies that combined
	// into Frame (1 for an ordinary decode, 0 when Frame is nil).
	Superposed int
}

// Config sets the channel imperfections.
type Config struct {
	// MissProb is the per-copy reception-loss probability for votes and
	// HACKs.
	MissProb float64
	// MissProbFor, when non-nil, supplies a per-transmitter loss
	// probability for votes and HACKs, overriding MissProb. Real
	// deployments have per-link irregularity — far or occluded motes
	// lose more frames — and the testbed analysis benefits from
	// modeling it.
	MissProbFor func(src int) float64
	// InterferenceProb is the per-slot probability that traffic from a
	// neighboring region puts energy on the channel.
	InterferenceProb float64
	// InterferenceJams controls whether interference also destroys
	// frame decoding in its slot (it always raises Energy). Backcast's
	// false negatives in multihop settings come from jammed HACKs.
	InterferenceJams bool
}

// Channel is the slot-synchronous medium interface the packet-level
// substrates drive (pollcast sessions, mote firmware): BeginSlot /
// Transmit / Observe / EndSlot cycles plus the slot, losslessness and
// air-time probes the observability layers read. *Medium implements it;
// middleware such as the faults layer's degraded medium wraps any
// Channel, so a session runs unchanged over a faulted link.
type Channel interface {
	BeginSlot()
	Transmit(f Frame)
	Observe(receiver int) Observation
	EndSlot()
	Slot() int
	Lossless() bool
	Elapsed() time.Duration
	TraceAttrs() []trace.Attr
}

// Medium is the shared slot-synchronous channel. Callers drive it in
// BeginSlot / Transmit* / Observe* / EndSlot cycles. Not safe for
// concurrent use.
type Medium struct {
	cfg         Config
	r           *rng.Source
	slot        int
	open        bool
	cur         []Frame
	incoming    []Frame // Observe's scratch: cur minus the receiver's own
	decoded     Frame   // the frame the last Observe decoded
	interfering bool
	elapsed     time.Duration
}

// NewMedium creates a channel with the given imperfections.
func NewMedium(cfg Config, r *rng.Source) *Medium {
	m := new(Medium)
	m.Reset(cfg, r)
	return m
}

// Reset returns the medium to the state NewMedium(cfg, r) creates — slot
// zero, no air time, no open slot — keeping its frame buffers, so pooled
// trial state reuses one medium without allocating.
func (m *Medium) Reset(cfg Config, r *rng.Source) {
	*m = Medium{cfg: cfg, r: r, cur: m.cur[:0], incoming: m.incoming[:0]}
}

// Slot returns the index of the current (or last completed) slot.
func (m *Medium) Slot() int { return m.slot }

// Lossless reports whether the medium can neither drop a reply nor fake
// channel activity: no per-copy loss on votes/HACKs and no external
// interference.
func (m *Medium) Lossless() bool {
	return m.cfg.MissProb == 0 && m.cfg.MissProbFor == nil && m.cfg.InterferenceProb == 0
}

// TraceAttrs implements trace.Annotator: the medium annotates spans with
// its imperfection model and the air-time ledger so far.
func (m *Medium) TraceAttrs() []trace.Attr {
	return []trace.Attr{
		trace.FloatAttr("radio_miss_prob", m.cfg.MissProb),
		trace.FloatAttr("radio_interference_prob", m.cfg.InterferenceProb),
		trace.BoolAttr("radio_interference_jams", m.cfg.InterferenceJams),
		trace.IntAttr("radio_slots", m.slot),
		trace.Int64Attr("radio_airtime_us", m.elapsed.Microseconds()),
	}
}

// BeginSlot opens the next slot. External interference for the slot is
// drawn here.
func (m *Medium) BeginSlot() {
	if m.open {
		panic("radio: BeginSlot inside an open slot")
	}
	m.open = true
	m.slot++
	m.cur = m.cur[:0]
	m.interfering = m.r.Bernoulli(m.cfg.InterferenceProb)
}

// Transmit puts a frame on the channel for the current slot.
func (m *Medium) Transmit(f Frame) {
	if !m.open {
		panic("radio: Transmit outside a slot")
	}
	m.cur = append(m.cur, f)
}

// Observe resolves the current slot for one receiver. Each call draws
// fresh reception randomness, modeling independent radios. The receiver
// never hears its own transmissions. A decoded Observation.Frame points
// at a frame the medium owns: it stays valid until the next Observe or
// EndSlot, so a caller that needs it longer copies it.
func (m *Medium) Observe(receiver int) Observation {
	if !m.open {
		panic("radio: Observe outside a slot")
	}
	m.incoming = m.incoming[:0]
	for _, f := range m.cur {
		if f.Src != receiver {
			m.incoming = append(m.incoming, f)
		}
	}
	incoming := m.incoming
	obs := Observation{Energy: len(incoming) > 0 || m.interfering}
	if len(incoming) == 0 {
		return obs
	}
	if m.interfering && m.cfg.InterferenceJams {
		// Energy detected but nothing decodable under the jam.
		return obs
	}

	// Identical-HACK superposition: if every incoming frame is a HACK
	// with the same identity, the copies reinforce one another and the
	// radio decodes their superposition if at least one copy survives.
	if allIdenticalHACKs(incoming) {
		survived := 0
		for _, f := range incoming {
			if !m.r.Bernoulli(m.lossFor(f)) {
				survived++
			}
		}
		if survived > 0 {
			m.decoded = incoming[0]
			obs.Frame = &m.decoded
			obs.Superposed = survived
		}
		return obs
	}

	// Distinct frames: apply per-copy loss to votes and HACKs. A lone
	// survivor decodes; colliding survivors destroy one another.
	arrived := 0
	for _, f := range incoming {
		if !f.Lossy() || !m.r.Bernoulli(m.lossFor(f)) {
			arrived++
			m.decoded = f
		}
	}
	if arrived == 1 {
		obs.Frame = &m.decoded
		obs.Superposed = 1
	}
	return obs
}

// EndSlot closes the current slot and advances the medium's clock: a busy
// slot lasts its longest frame plus the RX/TX turnaround; an idle slot is
// one unit backoff period.
func (m *Medium) EndSlot() {
	if !m.open {
		panic("radio: EndSlot outside a slot")
	}
	m.open = false
	slotAir := timing.BackoffSlot
	for _, f := range m.cur {
		if d := f.Airtime() + timing.Turnaround; d > slotAir {
			slotAir = d
		}
	}
	m.elapsed += slotAir
}

// Elapsed returns the medium's accumulated air time: the wall-clock cost
// of everything transmitted (and every idle slot waited) so far.
func (m *Medium) Elapsed() time.Duration { return m.elapsed }

// lossFor returns the per-copy loss probability for a lossy frame from
// its transmitter.
func (m *Medium) lossFor(f Frame) float64 {
	if m.cfg.MissProbFor != nil {
		return m.cfg.MissProbFor(f.Src)
	}
	return m.cfg.MissProb
}

func allIdenticalHACKs(frames []Frame) bool {
	first := frames[0]
	if first.Kind != FrameHACK {
		return false
	}
	for _, f := range frames[1:] {
		if f.Kind != FrameHACK || f.Addr != first.Addr || f.Seq != first.Seq {
			return false
		}
	}
	return true
}
