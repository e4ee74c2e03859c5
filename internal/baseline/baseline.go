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
	"math/bits"
	"slices"

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
	// early-termination point. It is the run's Scratch buffer, valid
	// until that Scratch's next run.
	Order []int
}

// Scratch is one caller's reusable baseline state: CSMA's per-station
// contention state and Sequential's reply order. Pooled trials keep one
// per worker, so a warm run allocates nothing; a nil *Scratch gives the
// run fresh buffers. Not safe for concurrent use.
type Scratch struct {
	stations []int32
	order    []int
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

// cwMin and cwMax bound CSMA's contention window. cwMax is a power of two
// and bounds every backoff counter, so the calendar wheel in Run needs
// exactly cwMax buckets.
const cwMin, cwMax = 4, 128

// Run simulates one session: n participants of which x reply, threshold
// t. Which nodes are positive does not matter to contention, only how
// many.
//
// Stations are the indices 0..x-1 of the backlog. A station's backoff
// counter counts down only on idle slots, so on the idle-slot clock
// (the number of idle slots so far) it transmits at a fixed time: the
// clock when it drew, plus the draw. Counters stay below cwMax, so a
// calendar wheel of cwMax buckets, indexed by that time modulo cwMax,
// holds every pending station, and the bucket under the current clock
// is the set transmitting this slot. Runs of idle slots are crossed in
// one step, capped by the guard. A busy slot costs O(transmitters);
// colliding stations redraw in backlog (index) order, drawing exactly
// what a slot-by-slot simulation draws.
func (c CSMA) Run(n, t, x int, r *rng.Source, s *Scratch) Result {
	if t <= 0 {
		return Result{Decision: true}
	}
	if t > n {
		return Result{Decision: false}
	}
	if s == nil {
		s = new(Scratch)
	}

	// Flat per-station state: cw is the contention window, next links a
	// station to the next one in its bucket (-1 ends a bucket), tx holds
	// one slot's transmitters. Every station's cw and next are written
	// before they are read, so reused storage needs no clearing.
	if cap(s.stations) < 3*x {
		s.stations = make([]int32, 3*x)
	}
	flat := s.stations[:3*x]
	cw, next, tx := flat[:x], flat[x:2*x], flat[2*x:2*x:3*x]
	var head [cwMax]int32
	for b := range head {
		head[b] = -1
	}
	var occupied [cwMax / 64]uint64 // bit b set iff bucket b is non-empty
	push := func(i int32, b int) {
		next[i] = head[b]
		head[b] = i
		occupied[b/64] |= 1 << (b % 64)
	}
	for i := int32(0); i < int32(x); i++ {
		cw[i] = cwMin
		push(i, r.Intn(cwMin))
	}

	var res Result
	backlog := x
	idle := 0 // the idle-slot clock
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
			if backlog == 0 {
				res.Decision = false
				return res
			}
		} else if idleRun >= c.GuardSlots {
			// Realistic termination: prolonged silence. May be wrong
			// if stations are still backed off.
			res.Decision = false
			return res
		}

		b := idle % cwMax
		if head[b] < 0 {
			// Idle slots until the next bucket fires, or until the
			// guard runs out, whichever comes first.
			gap := cwMax // no station left: only the guard ends the run
			if backlog > 0 {
				gap = nextOccupied(occupied, b)
			}
			if c.GuardSlots > 0 && c.GuardSlots-idleRun < gap {
				gap = c.GuardSlots - idleRun
			}
			res.Slots += gap
			idle += gap
			idleRun += gap
			continue
		}

		res.Slots++
		idleRun = 0
		tx = tx[:0]
		for i := head[b]; i >= 0; i = next[i] {
			tx = append(tx, i)
		}
		head[b] = -1
		occupied[b/64] &^= 1 << (b % 64)
		if len(tx) == 1 {
			if c.Drop == nil || !c.Drop(res.Slots) {
				res.Delivered++
			} else {
				res.Dropped++
			}
			// With no collision sensed the station believes it
			// delivered and leaves the backlog, even when Drop lost the
			// frame.
			backlog--
			continue
		}
		res.Collisions++
		slices.Sort(tx) // a bucket lists its stations newest first
		for _, i := range tx {
			cw[i] = min(2*cw[i], cwMax)
			push(i, (idle+r.Intn(int(cw[i])))%cwMax)
		}
	}
}

// nextOccupied returns the distance from bucket b, which is empty, to the
// next non-empty bucket of the wheel, wrapping past cwMax-1. At least one
// bucket must be non-empty.
func nextOccupied(occupied [cwMax / 64]uint64, b int) int {
	for d := 0; d < cwMax; d += 64 - (b+d)%64 {
		w := occupied[(b+d)/64%len(occupied)] >> ((b + d) % 64)
		if w != 0 {
			return d + bits.TrailingZeros64(w)
		}
	}
	panic("baseline: no occupied bucket")
}

// Sequential is the collision-free baseline: the initiator broadcasts a
// schedule assigning every participant its own reply slot (the paper's
// synchronized variant, which it notes "favors the sequential ordering
// results"). Positive nodes reply in their slot; the initiator stops as
// soon as the threshold question resolves.
type Sequential struct{}

// Run simulates one session over a uniformly random reply order, drawn
// into sc's order buffer.
func (Sequential) Run(n, t int, positives *idset.Dense, r *rng.Source, sc *Scratch) Result {
	if t <= 0 {
		return Result{Decision: true}
	}
	if t > n {
		return Result{Decision: false}
	}
	if sc == nil {
		sc = new(Scratch)
	}
	sc.order = r.PermInto(sc.order, n)
	order := sc.order
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
