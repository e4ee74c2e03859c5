// Package energy models per-node radio energy for the feedback schemes,
// using CC2420 current draws and the 802.15.4 air times from package
// timing. The paper motivates tcast with "bandwidth, energy and latency
// concerns"; this package quantifies the energy axis:
//
//   - tcast/backcast: everyone hears one bind per round; only polled bin
//     members wake for a short poll; only positives transmit a 352 µs
//     HACK; everyone else naps.
//   - CSMA: every contender must carrier-sense — receive — until its own
//     reply gets through, so listening dominates.
//   - sequential: nodes sleep until their scheduled slot, the cheapest
//     for participants, while the initiator listens through all of it.
package energy

import (
	"time"

	"tcast/internal/timing"
)

// Model holds radio current draws (mA) and the supply voltage (V).
type Model struct {
	RxmA, TxmA, IdlemA float64
	Voltage            float64
}

// CC2420 returns the TelosB radio's datasheet draws: 18.8 mA RX, 17.4 mA
// TX at 0 dBm, 0.4 mA idle, 3 V supply.
func CC2420() Model {
	return Model{RxmA: 18.8, TxmA: 17.4, IdlemA: 0.4, Voltage: 3}
}

// millijoules converts a duration at a current draw into mJ.
func (m Model) millijoules(d time.Duration, mA float64) float64 {
	return m.Voltage * mA * d.Seconds() // V · mA · s = mW·s·10⁻³·10³ = mJ
}

// Report is the energy bill of one session, in millijoules.
type Report struct {
	// Initiator is the querying node's energy.
	Initiator float64
	// PerNode is each participant's energy, indexed by node ID.
	PerNode []float64
}

// MeanNode returns the average participant energy.
func (r Report) MeanNode() float64 {
	if len(r.PerNode) == 0 {
		return 0
	}
	total := 0.0
	for _, e := range r.PerNode {
		total += e
	}
	return total / float64(len(r.PerNode))
}

// MaxNode returns the largest participant energy.
func (r Report) MaxNode() float64 {
	max := 0.0
	for _, e := range r.PerNode {
		if e > max {
			max = e
		}
	}
	return max
}

// Total returns the whole network's energy including the initiator.
func (r Report) Total() float64 {
	total := r.Initiator
	for _, e := range r.PerNode {
		total += e
	}
	return total
}

// SlotLedger counts one node's radio states over a session, in slots. The
// audit layer fills one ledger per node from the polls it actually
// observed; ObservedSession then prices the slots, replacing the analytical
// session models below with measured occupancy.
type SlotLedger struct {
	// Tx counts slots spent transmitting (polls for the initiator,
	// replies for positive bin members).
	Rx, Tx int
	// Idle counts slots spent awake but neither sending nor receiving
	// anything useful (a negative node listening through its bin's reply
	// slot).
	Idle int
}

// Add accumulates another ledger into l.
func (l *SlotLedger) Add(o SlotLedger) {
	l.Rx += o.Rx
	l.Tx += o.Tx
	l.Idle += o.Idle
}

// Slots returns the total accounted slots.
func (l SlotLedger) Slots() int { return l.Rx + l.Tx + l.Idle }

// ObservedSession prices per-node slot ledgers into an energy Report. The
// caller supplies the per-slot durations for each radio state — typically
// timing.FrameAirtime for rx/tx and a backoff slot for idle listening — so
// the bill reflects what each node's radio actually did, not the analytical
// schedule the session models above assume.
func ObservedSession(m Model, txAir, rxAir, idleAir time.Duration, initiator SlotLedger, nodes []SlotLedger) Report {
	bill := func(l SlotLedger) float64 {
		return m.millijoules(time.Duration(l.Tx)*txAir, m.TxmA) +
			m.millijoules(time.Duration(l.Rx)*rxAir, m.RxmA) +
			m.millijoules(time.Duration(l.Idle)*idleAir, m.IdlemA)
	}
	rep := Report{Initiator: bill(initiator), PerNode: make([]float64, len(nodes))}
	for i, l := range nodes {
		rep.PerNode[i] = bill(l)
	}
	return rep
}

// TcastSession prices one tcast-over-backcast session of the given rounds
// and polls over n participants. node reports each participant's slot
// ledger — an audited session's Verdict.Nodes.At — whose Rx counts the
// polls the node heard and Tx the replies it sent.
func TcastSession(m Model, c timing.Costs, rounds, polls, n int, node func(id int) SlotLedger) Report {
	pollAir := timing.FrameAirtime(3)
	ackAir := timing.AckAirtime()
	sessionTime := c.TcastLatency(polls, rounds)

	rep := Report{PerNode: make([]float64, n)}
	// Initiator: transmits every bind and poll, listens for every ACK
	// window, idles through turnarounds.
	txTime := time.Duration(rounds)*c.RoundBind + time.Duration(polls)*pollAir
	rxTime := time.Duration(polls) * ackAir
	idleTime := sessionTime - txTime - rxTime
	if idleTime < 0 {
		idleTime = 0
	}
	rep.Initiator = m.millijoules(txTime, m.TxmA) + m.millijoules(rxTime, m.RxmA) + m.millijoules(idleTime, m.IdlemA)

	// Participants: everyone receives each round's bind; polled bin
	// members receive the poll; polled positives transmit the HACK;
	// the rest of the session is idle/sleep.
	bindRx := time.Duration(rounds) * c.RoundBind
	for id := 0; id < n; id++ {
		l := node(id)
		rx := time.Duration(l.Rx) * pollAir
		tx := time.Duration(l.Tx) * ackAir
		idle := sessionTime - bindRx - rx - tx
		if idle < 0 {
			idle = 0
		}
		rep.PerNode[id] = m.millijoules(bindRx+rx, m.RxmA) +
			m.millijoules(tx, m.TxmA) +
			m.millijoules(idle, m.IdlemA)
	}
	return rep
}

// CSMASession computes the energy of one CSMA collection: the initiator
// and every contender listen for the whole session (carrier sensing is
// receiving); each delivered reply is one transmission. positives lists
// the contending node IDs; delivered of them got through.
func CSMASession(m Model, c timing.Costs, slots, delivered, n int, positives []int) Report {
	frameAir := timing.FrameAirtime(2)
	sessionTime := c.CSMALatency(slots, delivered)

	rep := Report{PerNode: make([]float64, n)}
	rep.Initiator = m.millijoules(sessionTime, m.RxmA)
	contender := make(map[int]bool, len(positives))
	for _, id := range positives {
		contender[id] = true
	}
	for id := 0; id < n; id++ {
		if !contender[id] {
			// Negative nodes have nothing to send and sleep through
			// the contention.
			rep.PerNode[id] = m.millijoules(sessionTime, m.IdlemA)
			continue
		}
		// Conservative: a contender carrier-senses for the whole
		// session and transmits once.
		listen := sessionTime - frameAir
		if listen < 0 {
			listen = 0
		}
		rep.PerNode[id] = m.millijoules(listen, m.RxmA) + m.millijoules(frameAir, m.TxmA)
	}
	return rep
}

// SequentialSession computes the energy of one TDMA collection over a
// random schedule: every node receives the schedule broadcast, sleeps
// until its own slot, and transmits only if positive and scheduled before
// the early-termination point (slots).
func SequentialSession(m Model, c timing.Costs, slots, n int, isPositive func(id int) bool, order []int) Report {
	frameAir := timing.FrameAirtime(2)
	scheduleAir := timing.FrameAirtime(2 * n / 8)
	sessionTime := c.SequentialLatency(slots)

	rep := Report{PerNode: make([]float64, n)}
	rep.Initiator = m.millijoules(sessionTime, m.RxmA)
	scheduledBeforeStop := make(map[int]bool, slots)
	for i := 0; i < slots && i < len(order); i++ {
		scheduledBeforeStop[order[i]] = true
	}
	for id := 0; id < n; id++ {
		active := scheduleAir
		var tx time.Duration
		if scheduledBeforeStop[id] && isPositive(id) {
			tx = frameAir
		}
		idle := sessionTime - active - tx
		if idle < 0 {
			idle = 0
		}
		rep.PerNode[id] = m.millijoules(active, m.RxmA) + m.millijoules(tx, m.TxmA) + m.millijoules(idle, m.IdlemA)
	}
	return rep
}
