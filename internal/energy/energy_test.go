package energy

import (
	"math"
	"testing"
	"time"

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
	rep := CSMASession(m, c, 60, 8, 32, positives)
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
	rep := SequentialSession(m, c, 32, 32, func(id int) bool { return id < 4 }, order)
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
