// Package mote emulates the Section IV-D testbed hardware: TelosB-class
// motes running a TinyOS-style TCast firmware. Every mote is a goroutine
// reachable over an in-memory serial link that mirrors the paper's control
// surface — participants expose configure and reboot, the initiator
// additionally exposes query. The initiator's firmware runs the 2tBins
// algorithm over backcast exactly as the deployed nesC implementation did,
// with superposed hardware acknowledgements on the shared radio medium.
package mote

import (
	"errors"
	"fmt"

	"tcast/internal/core"
	"tcast/internal/query"
	"tcast/internal/radio"
	"tcast/internal/rng"
)

// ErrNotConfigured is returned by Query before Configure set a threshold.
var ErrNotConfigured = errors.New("mote: initiator not configured")

// opKind enumerates serial and radio-side operations on a mote.
type opKind int

const (
	opConfigure opKind = iota
	opReboot
	opArmQuery // radio side: does the mote answer a poll of this bin?
)

type request struct {
	op        opKind
	positive  bool
	threshold int
	bin       []int
}

type response struct {
	armed bool
	err   error
}

// Participant is one non-initiator mote. Its state lives in its own
// goroutine; all access goes through the serial methods. At most one
// call may be in flight at a time, as on the real serial link: the lab
// configures and reboots motes only while the initiator is idle, and the
// initiator polls them one by one while the lab blocks on its query.
// Every call therefore reuses the one reply channel made at boot.
type Participant struct {
	id    int
	inbox chan request
	reply chan response
	done  chan struct{}
}

// NewParticipant boots a participant mote with the given radio ID.
func NewParticipant(id int) *Participant {
	p := &Participant{id: id, inbox: make(chan request), reply: make(chan response, 1), done: make(chan struct{})}
	go p.loop()
	return p
}

// ID returns the mote's radio identifier.
func (p *Participant) ID() int { return p.id }

func (p *Participant) loop() {
	defer close(p.done)
	positive := false
	for req := range p.inbox {
		switch req.op {
		case opConfigure:
			positive = req.positive
			p.reply <- response{}
		case opReboot:
			positive = false
			p.reply <- response{}
		case opArmQuery:
			armed := positive && contains(req.bin, p.id)
			p.reply <- response{armed: armed}
		}
	}
}

func (p *Participant) call(req request) response {
	p.inbox <- req
	return <-p.reply
}

// Configure sets the mote's predicate value for the next run (serial
// command).
func (p *Participant) Configure(positive bool) {
	p.call(request{op: opConfigure, positive: positive})
}

// Reboot clears the mote's state, as the lab does between runs (serial
// command).
func (p *Participant) Reboot() {
	p.call(request{op: opReboot})
}

// armedFor asks the mote firmware whether it answers a poll of bin — the
// hardware-address-recognition step that triggers an automatic HACK.
func (p *Participant) armedFor(bin []int) bool {
	return p.call(request{op: opArmQuery, bin: bin}).armed
}

// Close shuts the mote goroutine down.
func (p *Participant) Close() {
	close(p.inbox)
	<-p.done
}

func contains(bin []int, id int) bool {
	for _, b := range bin {
		if b == id {
			return true
		}
	}
	return false
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
	// the lab controller.
	Trace []QueryRecord
}

// Initiator is the querying mote. Its firmware (the goroutine) owns the
// radio medium and runs 2tBins over backcast on demand, matching the
// deployed nesC implementation. Like a Participant it serves at most one
// serial call at a time, so every call reuses the one reply channel made
// at boot.
type Initiator struct {
	id    int
	inbox chan initReq
	reply chan initResp
	done  chan struct{}
}

type initReq struct {
	op        opKind
	threshold int
}

type initResp struct {
	outcome QueryOutcome
	err     error
}

// NewInitiator boots the initiator mote with its 2tBins firmware. It
// owns med and r; participants are consulted over their radio-side
// interface during queries.
func NewInitiator(id int, med radio.Channel, participants []*Participant, r *rng.Source) *Initiator {
	ini := &Initiator{id: id, inbox: make(chan initReq), reply: make(chan initResp, 1), done: make(chan struct{})}
	go ini.loop(med, participants, r)
	return ini
}

// opQuery is a distinct op for the initiator's serial interface.
const opQuery opKind = 100

func (ini *Initiator) loop(med radio.Channel, participants []*Participant, r *rng.Source) {
	defer close(ini.done)
	threshold := -1
	for req := range ini.inbox {
		switch req.op {
		case opConfigure:
			threshold = req.threshold
			ini.reply <- initResp{}
		case opReboot:
			threshold = -1
			ini.reply <- initResp{}
		case opQuery:
			if threshold < 0 {
				ini.reply <- initResp{err: ErrNotConfigured}
				continue
			}
			outcome, err := ini.runTCast(med, participants, threshold, r)
			ini.reply <- initResp{outcome: outcome, err: err}
		}
	}
}

// backcastQuerier implements query.Querier over the medium with live
// participant firmware, recording a trace of every group query.
type backcastQuerier struct {
	med          radio.Channel
	initiatorID  int
	participants map[int]*Participant
	seq          uint8
	addr         uint16
	slots        int
	trace        []QueryRecord
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
	var armed []int
	for _, id := range bin {
		if p, ok := b.participants[id]; ok && p.armedFor(bin) {
			armed = append(armed, id)
		}
	}
	b.med.EndSlot()

	// Slot 2: poll frame to the ephemeral address, ACK-request set.
	b.med.BeginSlot()
	b.med.Transmit(radio.Frame{Kind: radio.FramePoll, Src: b.initiatorID, Dst: radio.Broadcast, Addr: b.addr, Seq: b.seq, Bytes: 3})
	b.med.EndSlot()

	// Slot 3: identical HACKs superpose nondestructively.
	b.med.BeginSlot()
	for _, id := range armed {
		b.med.Transmit(radio.Frame{Kind: radio.FrameHACK, Src: id, Addr: b.addr, Seq: b.seq})
	}
	obs := b.med.Observe(b.initiatorID)
	b.med.EndSlot()
	b.slots += 3

	resp := query.Response{Kind: query.Empty}
	if obs.Frame != nil && obs.Frame.Kind == radio.FrameHACK && obs.Frame.Addr == b.addr {
		resp.Kind = query.Active
	}
	b.trace = append(b.trace, QueryRecord{Bin: append([]int(nil), bin...), Empty: resp.Kind == query.Empty})
	return resp
}

func (ini *Initiator) runTCast(med radio.Channel, participants []*Participant, threshold int, r *rng.Source) (QueryOutcome, error) {
	parts := make(map[int]*Participant, len(participants))
	for _, p := range participants {
		parts[p.id] = p
	}
	// The TCast firmware addresses participants 0..n-1 in its group
	// assignments; verify the roster matches.
	for i := range participants {
		if _, ok := parts[i]; !ok {
			return QueryOutcome{}, fmt.Errorf("mote: participant IDs must be 0..%d, missing %d", len(participants)-1, i)
		}
	}
	q := &backcastQuerier{med: med, initiatorID: ini.id, participants: parts, addr: 0x8000}
	res, err := core.TwoTBins{}.Run(q, len(participants), threshold, r)
	if err != nil {
		return QueryOutcome{}, fmt.Errorf("mote: tcast failed: %w", err)
	}
	return QueryOutcome{
		Decision: res.Decision,
		Queries:  res.Queries,
		Slots:    q.slots,
		Rounds:   res.Rounds,
		Trace:    q.trace,
	}, nil
}

func (ini *Initiator) call(req initReq) initResp {
	ini.inbox <- req
	return <-ini.reply
}

// Configure sets the run's threshold (serial command).
func (ini *Initiator) Configure(threshold int) {
	ini.call(initReq{op: opConfigure, threshold: threshold})
}

// Reboot clears the initiator's configuration (serial command).
func (ini *Initiator) Reboot() {
	ini.call(initReq{op: opReboot})
}

// Query stimulates one TCast run over the radio and returns the result
// (serial command).
func (ini *Initiator) Query() (QueryOutcome, error) {
	r := ini.call(initReq{op: opQuery})
	return r.outcome, r.err
}

// Close shuts the initiator goroutine down.
func (ini *Initiator) Close() {
	close(ini.inbox)
	<-ini.done
}
