// Package pollcast implements the two single-hop RCD feedback primitives
// the paper builds on, at packet level on the radio medium:
//
//   - pollcast (Demirbas et al., INFOCOM 2008): the initiator broadcasts
//     the predicate and the queried group; positive group members all
//     answer in the next slot; the initiator senses the channel (CCA) —
//     and, in the 2+ model, may capture one vote frame and learn its
//     sender.
//   - backcast (Dutta et al., HotNets 2008): the initiator first binds the
//     group to an ephemeral 16-bit hardware address, then polls that
//     address; matching radios answer with bit-identical hardware
//     acknowledgements whose superposition decodes nondestructively. The
//     initiator declares "non-empty" only on a decoded HACK, which makes
//     backcast immune to interference-induced false positives.
//
// A Session implements query.Querier, so every algorithm in internal/core
// runs unchanged on this packet-level substrate.
package pollcast

import (
	"fmt"
	"time"

	"tcast/internal/query"
	"tcast/internal/radio"
	"tcast/internal/trace"
)

// Primitive selects the feedback mechanism.
type Primitive int

const (
	// Pollcast uses CCA-sensed simultaneous votes.
	Pollcast Primitive = iota
	// Backcast uses superposed hardware acknowledgements.
	Backcast
)

// String implements fmt.Stringer.
func (p Primitive) String() string {
	if p == Backcast {
		return "backcast"
	}
	return "pollcast"
}

// Participant is one queried node.
type Participant struct {
	ID int
	// Positive is the node's predicate value for this session.
	Positive bool
}

// Session is one threshold-query session by a fixed initiator over a fixed
// participant set. It implements query.Querier.
type Session struct {
	med         radio.Channel
	initiatorID int
	parts       map[int]*Participant
	prim        Primitive
	model       query.CollisionModel
	seq         uint8
	addr        uint16
	slots       int
	repliers    []int // deliverPoll's result, reused by every poll
}

// NewSession creates a session over any radio.Channel — the bare medium
// or a fault-layer wrapper. Backcast only supports the 1+ model: HACKs
// are identical by construction and carry no replier identity.
func NewSession(med radio.Channel, initiatorID int, participants []*Participant, prim Primitive, model query.CollisionModel) (*Session, error) {
	if prim == Backcast && model == query.TwoPlus {
		return nil, fmt.Errorf("pollcast: backcast HACKs are identical and cannot support the 2+ model")
	}
	parts := make(map[int]*Participant, len(participants))
	for _, p := range participants {
		if p.ID == initiatorID {
			return nil, fmt.Errorf("pollcast: participant %d clashes with the initiator", p.ID)
		}
		if _, dup := parts[p.ID]; dup {
			return nil, fmt.Errorf("pollcast: duplicate participant %d", p.ID)
		}
		parts[p.ID] = p
	}
	s := &Session{initiatorID: initiatorID, parts: parts, prim: prim, model: model}
	s.Reset(med)
	return s, nil
}

// Reset rebinds the session to med and rewinds its poll sequence number,
// ephemeral address and slot count, so it polls exactly as a new session
// over the same participants, primitive and model would. Participants
// are read live: a caller reusing a session may set their Positive flags
// between runs.
func (s *Session) Reset(med radio.Channel) {
	s.med = med
	s.seq, s.addr, s.slots = 0, 0x8000, 0
}

// Traits implements query.Querier. The medium decodes a vote only when
// exactly one copy survives, so on a lossless medium a decode proves the
// bin held one positive. On a lossy one, loss can thin several voters to
// one surviving copy, and the decode proves only "at least one": the 2+
// session then declares the capture effect.
func (s *Session) Traits() query.Traits {
	return query.Traits{Model: s.model, CaptureEffect: s.model == query.TwoPlus && !s.med.Lossless()}
}

// Slots returns the total radio slots consumed so far: the session's
// time cost (2 slots per pollcast query, 3 per backcast query).
func (s *Session) Slots() int { return s.slots }

// IsPositive reports the ground-truth predicate value for one participant.
// Unknown IDs (including the initiator) are negative.
func (s *Session) IsPositive(id int) bool {
	p, ok := s.parts[id]
	return ok && p.Positive
}

// Positives reports the ground-truth number of positive participants.
func (s *Session) Positives() int {
	x := 0
	for _, p := range s.parts {
		if p.Positive {
			x++
		}
	}
	return x
}

// Lossless reports whether the underlying medium can neither drop replies
// nor fake activity; see radio.Medium.Lossless.
func (s *Session) Lossless() bool { return s.med.Lossless() }

// Elapsed returns the session's wall-clock air time so far, from the
// medium's 802.15.4 clock.
func (s *Session) Elapsed() time.Duration { return s.med.Elapsed() }

// TraceAttrs implements trace.Annotator: the packet-level session
// annotates spans with its primitive, collision model and slot ledger,
// plus the medium's imperfection model underneath.
func (s *Session) TraceAttrs() []trace.Attr {
	attrs := []trace.Attr{
		trace.StringAttr("substrate", "pollcast"),
		trace.StringAttr("primitive", s.prim.String()),
		trace.StringAttr("collision_model", s.model.String()),
		trace.IntAttr("slots", s.slots),
	}
	return append(attrs, s.med.TraceAttrs()...)
}

// Query implements query.Querier: one RCD group poll over the air.
func (s *Session) Query(bin []int) query.Response {
	if s.prim == Backcast {
		return s.backcastQuery(bin)
	}
	return s.pollcastQuery(bin)
}

// pollcastQuery is the two-phase primitive: poll slot, then vote slot.
func (s *Session) pollcastQuery(bin []int) query.Response {
	s.seq++

	// Phase 1: the initiator multicasts the predicate and the bin.
	s.med.BeginSlot()
	s.med.Transmit(radio.Frame{
		Kind: radio.FramePoll, Src: s.initiatorID, Dst: radio.Broadcast,
		Seq: s.seq, Bytes: len(bin) + 2,
	})
	voters := s.deliverPoll(bin)
	s.med.EndSlot()
	s.slots++

	// Phase 2: every positive member votes simultaneously.
	s.med.BeginSlot()
	for _, v := range voters {
		s.med.Transmit(radio.Frame{Kind: radio.FrameVote, Src: v, Dst: s.initiatorID, Seq: s.seq, Bytes: 2})
	}
	obs := s.med.Observe(s.initiatorID)
	s.med.EndSlot()
	s.slots++

	if s.model == query.OnePlus {
		if obs.Energy {
			return query.Response{Kind: query.Active}
		}
		return query.Response{Kind: query.Empty}
	}
	switch {
	case obs.Frame != nil && obs.Frame.Kind == radio.FrameVote:
		return query.Response{Kind: query.Decoded, DecodedID: obs.Frame.Src}
	case obs.Energy:
		return query.Response{Kind: query.Collision}
	default:
		return query.Response{Kind: query.Empty}
	}
}

// backcastQuery is the three-phase primitive: bind the ephemeral address,
// poll it, collect superposed HACKs.
func (s *Session) backcastQuery(bin []int) query.Response {
	s.seq++
	s.addr++

	// Phase 1: predicate message binds positive bin members to the
	// ephemeral identifier.
	s.med.BeginSlot()
	s.med.Transmit(radio.Frame{
		Kind: radio.FrameData, Src: s.initiatorID, Dst: radio.Broadcast,
		Addr: s.addr, Bytes: len(bin) + 2,
	})
	armed := s.deliverPoll(bin)
	s.med.EndSlot()
	s.slots++

	// Phase 2: poll frame addressed to the ephemeral identifier with
	// the ACK-request flag set.
	s.med.BeginSlot()
	s.med.Transmit(radio.Frame{
		Kind: radio.FramePoll, Src: s.initiatorID, Dst: radio.Broadcast,
		Addr: s.addr, Seq: s.seq, Bytes: 3,
	})
	// Hardware address recognition: armed radios match and will HACK.
	// The poll itself rides the same control-reliability model as
	// phase 1 (a lost poll means no HACK from that node).
	s.med.EndSlot()
	s.slots++

	// Phase 3: identical HACKs superpose.
	s.med.BeginSlot()
	for _, h := range armed {
		s.med.Transmit(radio.Frame{Kind: radio.FrameHACK, Src: h, Addr: s.addr, Seq: s.seq})
	}
	obs := s.med.Observe(s.initiatorID)
	s.med.EndSlot()
	s.slots++

	// Interference immunity: only a decoded HACK counts as activity.
	if obs.Frame != nil && obs.Frame.Kind == radio.FrameHACK && obs.Frame.Addr == s.addr && obs.Frame.Seq == s.seq {
		return query.Response{Kind: query.Active}
	}
	return query.Response{Kind: query.Empty}
}

// deliverPoll lets every positive participant in bin receive the current
// control frame; it returns the IDs that heard it and will reply. The
// result is the session's scratch: valid until the next poll.
func (s *Session) deliverPoll(bin []int) []int {
	s.repliers = s.repliers[:0]
	for _, id := range bin {
		p, ok := s.parts[id]
		if !ok || !p.Positive {
			continue
		}
		if obs := s.med.Observe(id); obs.Frame != nil {
			s.repliers = append(s.repliers, id)
		}
	}
	return s.repliers
}
