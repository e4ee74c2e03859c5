// Package baseline implements the two traditional feedback-collection
// schemes the paper compares tcast against (Section IV-C): CSMA with
// binary exponential backoff, and sequential (TDMA-style) ordering.
//
// Both baselines measure cost in time slots. One slot carries one reply
// frame, which is commensurate with one RCD group query: a pollcast poll
// plus its simultaneous answer occupies a constant number of slots, so
// the paper plots both costs on a single axis.
package baseline

import (
	"tcast/internal/idset"
	"tcast/internal/rng"
)

// Result reports one baseline feedback-collection session.
type Result struct {
	// Decision is the initiator's answer to "x >= t?". Under CSMA with
	// guard-based termination the decision can be wrong — the paper's
	// point that "it is impossible to tell whether x > t or x < t holds
	// with certainty using CSMA".
	Decision bool
	// Slots is the number of time slots until the initiator decided.
	Slots int
	// Delivered counts reply frames successfully received.
	Delivered int
	// Collisions counts slots wasted on colliding transmissions.
	Collisions int
	// Dropped counts collision-free replies the channel lost on the way
	// to the initiator (CSMA's Drop hook); the transmitting station
	// still believes it delivered.
	Dropped int
	// Order is the reply schedule used by Sequential (nil for CSMA);
	// energy accounting needs to know who was scheduled before the
	// early-termination point.
	Order []int
}

// CSMA is the contention baseline: every positive node tries to deliver
// one reply using slotted carrier sensing with binary exponential backoff.
// The initiator stops as soon as it can answer the threshold question.
type CSMA struct {
	// GuardSlots selects the termination rule for the "x < t" side.
	// Zero means idealized termination — the initiator magically knows
	// when the last reply has arrived, the assumption most favorable to
	// CSMA (mirroring how the paper favored the baselines). A positive
	// value means realistic termination: the initiator declares
	// "threshold unreachable" after that many consecutive idle slots,
	// which can be wrong if a node is still backed off.
	GuardSlots int
	// Drop, when non-nil, is consulted once per successful (collision-
	// free) reply slot: true means the reply frame was lost on the way to
	// the initiator — the station sensed no collision, believes it
	// delivered, and leaves the backlog, but the initiator heard nothing.
	// The faults layer supplies this hook (faults.Link) to subject CSMA
	// to the same bursty-channel process as the RCD substrates; pair it
	// with a positive GuardSlots so lost replies cannot stall idealized
	// termination.
	Drop func(slot int) bool
}

// cwMin and cwMax bound CSMA's contention window.
const cwMin, cwMax = 4, 128

// Run simulates one session: n participants of which x reply, threshold
// t. Which nodes are positive does not matter to contention, only how
// many.
func (c CSMA) Run(n, t, x int, r *rng.Source) Result {
	if t <= 0 {
		return Result{Decision: true}
	}
	if t > n {
		return Result{Decision: false}
	}

	// Per-backlogged-node contention state.
	type station struct {
		cw      int
		counter int
	}
	backlog := make([]*station, 0, x)
	for i := 0; i < x; i++ {
		backlog = append(backlog, &station{cw: cwMin, counter: r.Intn(cwMin)})
	}

	var res Result
	idleRun := 0
	for {
		if res.Delivered >= t {
			res.Decision = true
			return res
		}
		if c.GuardSlots == 0 {
			// Idealized termination: every station has delivered (or,
			// under Drop, believes it has), threshold not met. The
			// backlog empties exactly when Delivered reaches x on a
			// loss-free channel, so this is the same rule — but it also
			// terminates when dropped replies make Delivered fall short
			// of x forever.
			if len(backlog) == 0 {
				res.Decision = false
				return res
			}
		} else if idleRun >= c.GuardSlots {
			// Realistic termination: prolonged silence. May be wrong
			// if stations are still backed off.
			res.Decision = false
			return res
		}

		res.Slots++
		// Stations whose counter expired transmit this slot.
		transmit := backlog[:0:0]
		for _, s := range backlog {
			if s.counter == 0 {
				transmit = append(transmit, s)
			}
		}
		switch len(transmit) {
		case 0:
			idleRun++
			for _, s := range backlog {
				s.counter--
			}
		case 1:
			idleRun = 0
			if c.Drop == nil || !c.Drop(res.Slots) {
				res.Delivered++
			} else {
				res.Dropped++
			}
			// Remove the successful station from the backlog: with no
			// collision sensed it believes it delivered, even when Drop
			// lost the frame.
			kept := backlog[:0]
			for _, s := range backlog {
				if s != transmit[0] {
					kept = append(kept, s)
				}
			}
			backlog = kept
		default:
			idleRun = 0
			res.Collisions++
			for _, s := range transmit {
				s.cw *= 2
				if s.cw > cwMax {
					s.cw = cwMax
				}
				s.counter = r.Intn(s.cw)
			}
		}
	}
}

// Sequential is the collision-free baseline: the initiator broadcasts a
// schedule assigning every participant its own reply slot (the paper's
// synchronized variant, which it notes "favors the sequential ordering
// results"). Positive nodes reply in their slot; the initiator stops as
// soon as the threshold question resolves.
type Sequential struct{}

// Run simulates one session over a uniformly random reply order.
func (s Sequential) Run(n, t int, positives *idset.Dense, r *rng.Source) Result {
	if t <= 0 {
		return Result{Decision: true}
	}
	if t > n {
		return Result{Decision: false}
	}
	order := r.Perm(n)
	res := Result{Order: order}
	heard := 0
	for i, id := range order {
		res.Slots++
		if positives.Contains(id) {
			heard++
			res.Delivered++
		}
		remaining := n - (i + 1)
		if heard >= t {
			res.Decision = true
			return res
		}
		if heard+remaining < t {
			res.Decision = false
			return res
		}
	}
	// Unreachable: one of the two conditions resolves by the last slot.
	res.Decision = heard >= t
	return res
}
