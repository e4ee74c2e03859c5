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

// perNode returns n zeroed values in buf's storage when it holds n,
// otherwise in a new slice: the PerNode of a session priced into a
// caller's reused buffer.
func perNode(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
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

// SlotLedger counts one node's radio states over a session, in slots. The
// audit layer fills one ledger per node from the polls it actually
// observed; TcastSession then prices the slots with measured occupancy.
type SlotLedger struct {
	// Tx counts slots spent transmitting (polls for the initiator,
	// replies for positive bin members).
	Rx, Tx int
	// Idle counts slots spent awake but neither sending nor receiving
	// anything useful (a negative node listening through its bin's reply
	// slot).
	Idle int
}

// Slots returns the total accounted slots.
func (l SlotLedger) Slots() int { return l.Rx + l.Tx + l.Idle }

// TcastSession prices one tcast-over-backcast session of the given rounds
// and polls over n participants. node reports each participant's slot
// ledger — an audited session's Verdict.Nodes.At — whose Rx counts the
// polls the node heard and Tx the replies it sent. PerNode reuses buf's
// storage when it holds n values, as in every session pricer here.
func TcastSession(m Model, c timing.Costs, rounds, polls, n int, node func(id int) SlotLedger, buf []float64) Report {
	pollAir := timing.FrameAirtime(3)
	ackAir := timing.AckAirtime()
	sessionTime := c.TcastLatency(polls, rounds)

	rep := Report{PerNode: perNode(buf, n)}
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
// receiving); each delivered reply is one transmission. isContender
// reports the contending (positive) nodes; delivered of them got through.
func CSMASession(m Model, c timing.Costs, slots, delivered, n int, isContender func(id int) bool, buf []float64) Report {
	frameAir := timing.FrameAirtime(2)
	sessionTime := c.CSMALatency(slots, delivered)

	rep := Report{PerNode: perNode(buf, n)}
	rep.Initiator = m.millijoules(sessionTime, m.RxmA)
	for id := 0; id < n; id++ {
		if !isContender(id) {
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
func SequentialSession(m Model, c timing.Costs, slots, n int, isPositive func(id int) bool, order []int, buf []float64) Report {
	frameAir := timing.FrameAirtime(2)
	scheduleAir := timing.FrameAirtime(2 * n / 8)
	sessionTime := c.SequentialLatency(slots)

	rep := Report{PerNode: perNode(buf, n)}
	rep.Initiator = m.millijoules(sessionTime, m.RxmA)
	bill := func(tx time.Duration) float64 {
		active := scheduleAir
		idle := sessionTime - active - tx
		if idle < 0 {
			idle = 0
		}
		return m.millijoules(active, m.RxmA) + m.millijoules(tx, m.TxmA) + m.millijoules(idle, m.IdlemA)
	}
	// Every node pays the sleeper's bill, then the positives scheduled
	// before the stop pay the transmitter's instead.
	sleeper := bill(0)
	for id := range rep.PerNode {
		rep.PerNode[id] = sleeper
	}
	for i := 0; i < slots && i < len(order); i++ {
		if id := order[i]; id >= 0 && id < n && isPositive(id) {
			rep.PerNode[id] = bill(frameAir)
		}
	}
	return rep
}
