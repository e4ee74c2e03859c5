package serve

import (
	"container/heap"
	"sync"
	"sync/atomic"

	"tcast/internal/query"
)

// Field is one shared simulated medium: a virtual slot clock all its
// sessions' transmissions serialize on. There is no scheduler goroutine:
// the session goroutines apply the barrier rule themselves under the
// field's mutex (arrive, park, done), and whichever of them finds the
// barrier reached hands the medium to the winner. The rule only ever
// decides when no admitted session is running, so every grant — and
// therefore every contention price — is a pure function of the admitted
// sessions' (virtual ready time, admission sequence) order.
type Field struct {
	pool  *Pool
	index int

	tokens chan struct{} // MaxActive scheduler slots; excess sessions queue here

	// mu guards the barrier state: the virtual slot clock, the running
	// count, the parked sessions' heap and the gate.
	mu      sync.Mutex
	now     int64
	running int
	waiting waitQueue
	gated   bool

	// inflight counts queued+running sessions (admission bound); active
	// and queued split it for gauges; clock mirrors the virtual slot
	// clock for stats snapshots.
	inflight atomic.Int64
	active   atomic.Int64
	queued   atomic.Int64
	clock    atomic.Int64
	served   atomic.Int64
	parked   atomic.Int64
}

func newField(p *Pool, index, maxActive int, hold bool) *Field {
	f := &Field{
		pool:   p,
		index:  index,
		tokens: make(chan struct{}, maxActive),
		gated:  hold,
	}
	for i := 0; i < maxActive; i++ {
		f.tokens <- struct{}{}
	}
	return f
}

// open releases a gated field; later calls are no-ops.
func (f *Field) open() {
	f.mu.Lock()
	f.gated = false
	w := f.grantLocked()
	f.mu.Unlock()
	if w != nil {
		w.grant <- struct{}{}
	}
}

// Clock returns the field's current virtual slot clock.
func (f *Field) Clock() int64 { return f.clock.Load() }

// Served returns the number of sessions the field has completed.
func (f *Field) Served() int64 { return f.served.Load() }

// Parked returns the number of sessions currently waiting at the medium
// for a grant. Tests on a held field use it to fix the arrival order:
// once every submitted session is parked, Open starts scheduling from a
// known state.
func (f *Field) Parked() int64 { return f.parked.Load() }

// The barrier rule: a session arrives running, parks at the medium
// before each poll (carrying the slot cost of the poll it just finished,
// which advances the clock) and is done after its last. Once no session
// is running and the field is not gated, the parked session with the
// lowest (readyAt, seq) key gets the medium. No grant decision is ever
// taken while a session that could still request the medium is running,
// which is what makes contention pricing independent of goroutine
// scheduling.

// arrive enters r's session into the barrier: it is running from the
// current clock.
func (f *Field) arrive(r *run) {
	f.mu.Lock()
	r.readyAt = f.now
	r.startSlot = f.now
	f.running++
	f.mu.Unlock()
}

// park blocks r's session at the medium until it is granted the next
// transmission. A session that wins its own grant returns without a
// channel operation; otherwise the caller hands the medium to the winner
// and waits for its own grant.
func (f *Field) park(r *run) {
	f.mu.Lock()
	f.advanceLocked(r)
	r.readyAt = f.now
	f.running--
	heap.Push(&f.waiting, r)
	f.parked.Store(int64(f.waiting.Len()))
	w := f.grantLocked()
	f.mu.Unlock()
	if w == r {
		return
	}
	if w != nil {
		w.grant <- struct{}{}
	}
	<-r.grant
}

// done retires r's session after its last poll and finishes it under the
// field's mutex, so verdicts publish in scheduler order; then it hands
// the medium on if the barrier is reached.
func (f *Field) done(s *Session) {
	r := s.run
	f.mu.Lock()
	f.advanceLocked(r)
	f.running--
	f.served.Add(1)
	s.finish(f.now)
	w := f.grantLocked()
	f.mu.Unlock()
	if w != nil {
		w.grant <- struct{}{}
	}
}

// advanceLocked charges the poll r's session just finished to the clock
// and to its own occupancy.
func (f *Field) advanceLocked(r *run) {
	f.now += r.lastCost
	r.ownSlots += r.lastCost
	f.clock.Store(f.now)
}

// grantLocked applies the barrier: when no session is running, the field
// is open and a session is parked, it pops the winner, charges its wait
// and counts it running. It returns the winner, or nil.
func (f *Field) grantLocked() *run {
	if f.running > 0 || f.gated || f.waiting.Len() == 0 {
		return nil
	}
	w := heap.Pop(&f.waiting).(*run)
	f.parked.Store(int64(f.waiting.Len()))
	w.waited += f.now - w.readyAt
	f.running++
	return w
}

// waitQueue orders parked sessions by (virtual ready time, admission
// sequence) — earliest ready transmits first, ties broken by arrival
// order so earlier admissions never starve behind later ones.
type waitQueue []*run

func (q waitQueue) Len() int { return len(q) }
func (q waitQueue) Less(i, j int) bool {
	if q[i].readyAt != q[j].readyAt {
		return q[i].readyAt < q[j].readyAt
	}
	return q[i].seq < q[j].seq
}
func (q waitQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *waitQueue) Push(x any)   { *q = append(*q, x.(*run)) }
func (q *waitQueue) Pop() any {
	old := *q
	n := len(old)
	r := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return r
}

// mediumQuerier is the scheduler's query.Querier middleware: before each
// downstream poll the session parks at the field's medium and waits for
// its grant, so concurrent initiators' transmissions serialize on one
// virtual slot clock. It forwards bins and responses unchanged and
// consumes no randomness — a session's verdict is identical with or
// without contention; only its slot ledger (waiting time, span) differs.
type mediumQuerier struct {
	inner query.Querier
	r     *run
	// meter is the outermost slot meter below this wrapper (nil on the
	// abstract fastsim channel); its per-poll delta prices the medium
	// occupancy, one slot per poll otherwise.
	meter interface{ Slots() int }
	last  int
}

// reset re-targets m at inner for r's session, discovering the slot
// meter.
func (m *mediumQuerier) reset(inner query.Querier, r *run) {
	*m = mediumQuerier{inner: inner, r: r, meter: query.SlotMeter(inner)}
	if m.meter != nil {
		m.last = m.meter.Slots()
	}
}

// Query implements query.Querier: park, wait for the grant, transmit.
func (m *mediumQuerier) Query(bin []int) query.Response {
	r := m.r
	r.field.park(r)
	resp := m.inner.Query(bin)
	cost := int64(1)
	if m.meter != nil {
		now := m.meter.Slots()
		if d := int64(now - m.last); d > 0 {
			cost = d
		}
		m.last = now
	}
	r.lastCost = cost
	return resp
}

// Traits implements query.Querier.
func (m *mediumQuerier) Traits() query.Traits { return m.inner.Traits() }

// Unwrap implements query.Wrapper, so audit's ground-truth discovery and
// the slot-meter walks see through the medium.
func (m *mediumQuerier) Unwrap() query.Querier { return m.inner }
