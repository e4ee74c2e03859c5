package energy

import (
	"math"
	"slices"
	"testing"
	"time"

	"tcast/internal/rng"
	"tcast/internal/timing"
)

func TestCC2420Model(t *testing.T) {
	m := CC2420()
	if m.RxmA <= m.TxmA {
		// On the CC2420, listening costs MORE than transmitting at
		// 0 dBm — the fact that makes idle listening the energy killer.
		t.Fatal("CC2420 RX draw must exceed TX draw")
	}
	// 1 second at 18.8 mA and 3 V is 56.4 mJ.
	if got := m.millijoules(time.Second, 18.8); math.Abs(got-56.4) > 1e-9 {
		t.Fatalf("millijoules = %v, want 56.4", got)
	}
}

func TestReportHelpers(t *testing.T) {
	r := Report{Initiator: 5, PerNode: []float64{1, 2, 3}}
	if r.MeanNode() != 2 {
		t.Fatalf("MeanNode = %v", r.MeanNode())
	}
	empty := Report{}
	if empty.MeanNode() != 0 {
		t.Fatal("empty report helpers wrong")
	}
}

func TestCSMAListeningDominates(t *testing.T) {
	// A CSMA contender listens through the whole session; a tcast
	// participant naps between short polls. For equal-duration
	// deployments the contender pays close to RX-always.
	m := CC2420()
	c := timing.DefaultCosts(32)
	positives := []int{1, 2, 3, 4, 5, 6, 7, 8}
	rep := CSMASession(m, c, 60, 8, 32, func(id int) bool { return slices.Contains(positives, id) }, nil)
	sessionTime := c.CSMALatency(60, 8)
	rxAlways := m.millijoules(sessionTime, m.RxmA)
	for _, id := range positives {
		if rep.PerNode[id] < 0.8*rxAlways {
			t.Fatalf("contender %d pays %v, want near rx-always %v", id, rep.PerNode[id], rxAlways)
		}
	}
	// Non-contenders sleep.
	if rep.PerNode[20] >= rep.PerNode[1] {
		t.Fatal("sleeper not cheaper than contender")
	}
}

func TestSequentialSleepersAreCheap(t *testing.T) {
	m := CC2420()
	c := timing.DefaultCosts(32)
	order := make([]int, 32)
	for i := range order {
		order[i] = i
	}
	rep := SequentialSession(m, c, 32, 32, func(id int) bool { return id < 4 }, order, nil)
	// Every participant's bill is far below the initiator's rx-always.
	for id, e := range rep.PerNode {
		if e >= rep.Initiator/2 {
			t.Fatalf("node %d pays %v vs initiator %v", id, e, rep.Initiator)
		}
	}
	// Positives pay slightly more (they transmit).
	if rep.PerNode[0] <= rep.PerNode[30] {
		t.Fatal("transmitting node not above sleeping node")
	}
}

// mapCSMASession and mapSequentialSession are the per-call-map pricers
// CSMASession and SequentialSession replaced, kept as their oracles.
func mapCSMASession(m Model, c timing.Costs, slots, delivered, n int, positives []int) Report {
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
			rep.PerNode[id] = m.millijoules(sessionTime, m.IdlemA)
			continue
		}
		listen := sessionTime - frameAir
		if listen < 0 {
			listen = 0
		}
		rep.PerNode[id] = m.millijoules(listen, m.RxmA) + m.millijoules(frameAir, m.TxmA)
	}
	return rep
}

func mapSequentialSession(m Model, c timing.Costs, slots, n int, isPositive func(id int) bool, order []int) Report {
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

// TestBaselinePricersMatchMapOracles: priced into one reused buffer, the
// CSMA and Sequential bills equal the map oracles' bit for bit, node by
// node and in MeanNode's summation, and a warm call allocates nothing.
func TestBaselinePricersMatchMapOracles(t *testing.T) {
	m := CC2420()
	var buf []float64
	root := rng.New(5)
	for i := 0; i < 200; i++ {
		n := 1 + (i*11)%128
		x, slots := (i*7)%(n+1), (i*13)%(n+40)
		r := root.Split(uint64(i))
		ids := r.Sample(n, x)
		isPos := func(id int) bool { return slices.Contains(ids, id) }
		c := timing.DefaultCosts(n)
		same := func(what string, got, want Report) {
			t.Helper()
			if got.Initiator != want.Initiator || !slices.Equal(got.PerNode, want.PerNode) || got.MeanNode() != want.MeanNode() {
				t.Fatalf("%s n=%d x=%d slots=%d: got %+v, oracle %+v", what, n, x, slots, got, want)
			}
		}
		got := CSMASession(m, c, slots, min(x, slots), n, isPos, buf)
		same("csma", got, mapCSMASession(m, c, slots, min(x, slots), n, ids))
		buf = got.PerNode
		order := r.PermInto(nil, n)
		got = SequentialSession(m, c, slots, n, isPos, order, buf)
		same("sequential", got, mapSequentialSession(m, c, slots, n, isPos, order))
		buf = got.PerNode
	}
	c := timing.DefaultCosts(128)
	order := rng.New(1).PermInto(nil, 128)
	isPos := func(id int) bool { return id%5 == 0 }
	buf = make([]float64, 128)
	allocs := testing.AllocsPerRun(50, func() {
		CSMASession(m, c, 90, 16, 128, isPos, buf)
		SequentialSession(m, c, 60, 128, isPos, order, buf)
	})
	if allocs != 0 {
		t.Errorf("warm CSMA and Sequential pricing: %v allocs, want 0", allocs)
	}
}
