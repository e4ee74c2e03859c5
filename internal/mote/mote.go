// Package mote emulates the Section IV-D testbed hardware: TelosB-class
// motes running a TinyOS-style TCast firmware. Each mote is a plain state
// machine behind the paper's serial control surface — participants expose
// configure and reboot, the initiator additionally exposes query — and,
// like the serial link it models, takes one command at a time: no mote is
// safe for concurrent use. The initiator's firmware runs the 2tBins
// algorithm over backcast exactly as the deployed nesC implementation did,
// with superposed hardware acknowledgements on the shared radio medium.
package mote

import (
	"errors"
	"fmt"
	"slices"

	"tcast/internal/core"
	"tcast/internal/query"
	"tcast/internal/radio"
	"tcast/internal/rng"
)

// ErrNotConfigured is returned by Query before Configure set a threshold.
var ErrNotConfigured = errors.New("mote: initiator not configured")

// Participant is one non-initiator mote: its radio ID and the predicate
// value the lab configured for the run. It is not safe for concurrent
// use; as on the real serial link, the lab configures and reboots motes
// only while the initiator is idle, and the initiator consults them one
// by one while the lab waits on its query.
type Participant struct {
	id       int
	positive bool
}

// NewParticipant boots a participant mote with the given radio ID.
func NewParticipant(id int) *Participant { return &Participant{id: id} }

// ID returns the mote's radio identifier.
func (p *Participant) ID() int { return p.id }

// Configure sets the mote's predicate value for the next run (serial
// command).
func (p *Participant) Configure(positive bool) { p.positive = positive }

// Reboot clears the mote's state, as the lab does between runs (serial
// command).
func (p *Participant) Reboot() { p.positive = false }

// armedFor reports whether the mote firmware answers a poll of bin — the
// hardware-address-recognition step that triggers an automatic HACK.
func (p *Participant) armedFor(bin []int) bool {
	return p.positive && slices.Contains(bin, p.id)
}

// QueryRecord traces one backcast group query as seen by the initiator.
type QueryRecord struct {
	// Bin is the polled group.
	Bin []int
	// Empty reports whether the initiator heard no HACK.
	Empty bool
}

// QueryOutcome is the initiator's serial report for one TCast run.
type QueryOutcome struct {
	// Decision answers "at least threshold positives?".
	Decision bool
	// Queries is the number of backcast group polls.
	Queries int
	// Slots is the radio time consumed (3 slots per backcast query).
	Slots int
	// Rounds is the number of 2tBins rounds.
	Rounds int
	// Trace lists every group query in order, for offline analysis by
	// the lab controller. It and its bins are the initiator's storage,
	// valid until its next Query.
	Trace []QueryRecord
}

// Initiator is the querying mote. Its firmware owns the radio medium and
// runs 2tBins over backcast on demand, matching the deployed nesC
// implementation. Like a Participant it is a plain state machine that
// serves one serial command at a time and is not safe for concurrent use.
type Initiator struct {
	participants []*Participant
	r            *rng.Source
	threshold    int // -1 until Configure

	// The firmware's run state, reused run after run: the 2tBins session
	// scratch and the backcast querier over the medium.
	arena core.Arena
	q     backcastQuerier
}

// NewInitiator boots the initiator mote with its 2tBins firmware. It
// owns med and r; participants are consulted over their radio-side
// interface during queries.
func NewInitiator(id int, med radio.Channel, participants []*Participant, r *rng.Source) *Initiator {
	return &Initiator{participants: participants, r: r, threshold: -1,
		q: backcastQuerier{med: med, initiatorID: id, participants: participants}}
}

// Configure sets the run's threshold (serial command).
func (ini *Initiator) Configure(threshold int) { ini.threshold = threshold }

// Reboot clears the initiator's configuration (serial command).
func (ini *Initiator) Reboot() { ini.threshold = -1 }

// Query stimulates one TCast run over the radio and returns the result
// (serial command).
func (ini *Initiator) Query() (QueryOutcome, error) {
	if ini.threshold < 0 {
		return QueryOutcome{}, ErrNotConfigured
	}
	return ini.runTCast()
}

// backcastQuerier implements query.Querier over the medium with live
// participant firmware, recording a trace of every group query. The
// trace's bins are consecutive runs of one ID arena, reused run after
// run, like the fault injector's event lists.
type backcastQuerier struct {
	med          radio.Channel
	initiatorID  int
	participants []*Participant // indexed by radio ID
	seq          uint8
	addr         uint16
	slots        int
	armed        []int // scratch, reused by every poll
	trace        []QueryRecord
	ids          []int // the run's polled bins, in poll order
}

// Traits implements query.Querier. Backcast is a 1+ primitive.
func (b *backcastQuerier) Traits() query.Traits {
	return query.Traits{Model: query.OnePlus}
}

// Query implements query.Querier: one 3-slot backcast over the air.
func (b *backcastQuerier) Query(bin []int) query.Response {
	b.seq++
	b.addr++

	// Slot 1: predicate message binds the ephemeral address. Armed
	// participants program their radio's short-address register.
	b.med.BeginSlot()
	b.med.Transmit(radio.Frame{Kind: radio.FrameData, Src: b.initiatorID, Dst: radio.Broadcast, Addr: b.addr, Bytes: len(bin) + 2})
	b.armed = b.armed[:0]
	for _, id := range bin {
		if id >= 0 && id < len(b.participants) && b.participants[id].armedFor(bin) {
			b.armed = append(b.armed, id)
		}
	}
	b.med.EndSlot()

	// Slot 2: poll frame to the ephemeral address, ACK-request set.
	b.med.BeginSlot()
	b.med.Transmit(radio.Frame{Kind: radio.FramePoll, Src: b.initiatorID, Dst: radio.Broadcast, Addr: b.addr, Seq: b.seq, Bytes: 3})
	b.med.EndSlot()

	// Slot 3: identical HACKs superpose nondestructively.
	b.med.BeginSlot()
	for _, id := range b.armed {
		b.med.Transmit(radio.Frame{Kind: radio.FrameHACK, Src: id, Addr: b.addr, Seq: b.seq})
	}
	obs := b.med.Observe(b.initiatorID)
	b.med.EndSlot()
	b.slots += 3

	resp := query.Response{Kind: query.Empty}
	if obs.Frame != nil && obs.Frame.Kind == radio.FrameHACK && obs.Frame.Addr == b.addr {
		resp.Kind = query.Active
	}
	// The record's Bin is only a length until bindTrace: the arena may
	// move while it grows.
	at := len(b.ids)
	b.ids = append(b.ids, bin...)
	b.trace = append(b.trace, QueryRecord{Bin: b.ids[at:], Empty: resp.Kind == query.Empty})
	return resp
}

// bindTrace points every trace record's Bin at its run of the arena, as
// the run left it, each capped at its length so that appending to one
// cannot clobber the next.
func (b *backcastQuerier) bindTrace() {
	at := 0
	for i := range b.trace {
		end := at + len(b.trace[i].Bin)
		b.trace[i].Bin = b.ids[at:end:end]
		at = end
	}
}

func (ini *Initiator) runTCast() (QueryOutcome, error) {
	// The TCast firmware addresses participants 0..n-1 in its group
	// assignments, and finds participant i at index i; verify the roster
	// matches.
	for i, p := range ini.participants {
		if p.id != i {
			return QueryOutcome{}, fmt.Errorf("mote: participant %d has ID %d; IDs must be 0..%d in order", i, p.id, len(ini.participants)-1)
		}
	}
	// Every run starts from the same sequence number and ephemeral
	// address, and records its trace over the last run's.
	q := &ini.q
	q.seq, q.addr, q.slots, q.trace, q.ids = 0, 0x8000, 0, q.trace[:0], q.ids[:0]
	res, err := core.RunIn(&ini.arena, core.TwoTBins{}, q, len(ini.participants), ini.threshold, ini.r)
	if err != nil {
		return QueryOutcome{}, fmt.Errorf("mote: tcast failed: %w", err)
	}
	q.bindTrace()
	return QueryOutcome{
		Decision: res.Decision,
		Queries:  res.Queries,
		Slots:    q.slots,
		Rounds:   res.Rounds,
		Trace:    q.trace,
	}, nil
}
