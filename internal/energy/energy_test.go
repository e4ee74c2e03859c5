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
	if r.MaxNode() != 3 {
		t.Fatalf("MaxNode = %v", r.MaxNode())
	}
	if r.Total() != 11 {
		t.Fatalf("Total = %v", r.Total())
	}
	empty := Report{}
	if empty.MeanNode() != 0 || empty.MaxNode() != 0 {
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

func TestObservedSession(t *testing.T) {
	m := CC2420()
	tx, rx, idle := 400*time.Microsecond, 800*time.Microsecond, 320*time.Microsecond
	init := SlotLedger{Tx: 10, Rx: 5}
	nodes := []SlotLedger{
		{Rx: 10, Tx: 5},   // positive node: hears polls, replies
		{Rx: 10, Idle: 5}, // negative node: hears polls, idles reply slots
		{},                // never polled: sleeps, zero bill
	}
	rep := ObservedSession(m, tx, rx, idle, init, nodes)
	wantInit := m.millijoules(10*tx, m.TxmA) + m.millijoules(5*rx, m.RxmA)
	if math.Abs(rep.Initiator-wantInit) > 1e-12 {
		t.Fatalf("Initiator = %v, want %v", rep.Initiator, wantInit)
	}
	want0 := m.millijoules(10*rx, m.RxmA) + m.millijoules(5*tx, m.TxmA)
	want1 := m.millijoules(10*rx, m.RxmA) + m.millijoules(5*idle, m.IdlemA)
	if math.Abs(rep.PerNode[0]-want0) > 1e-12 || math.Abs(rep.PerNode[1]-want1) > 1e-12 {
		t.Fatalf("PerNode = %v, want [%v %v 0]", rep.PerNode, want0, want1)
	}
	if rep.PerNode[2] != 0 {
		t.Fatalf("unpolled node billed %v", rep.PerNode[2])
	}
	// Replies are cheaper than listening on the CC2420, so the positive
	// node (tx slots) must spend less than a hypothetical node that
	// listened through the same 5 slots.
	if rep.PerNode[0] >= m.millijoules(10*rx, m.RxmA)+m.millijoules(5*rx, m.RxmA) {
		t.Fatal("tx slots priced at or above rx slots")
	}
	var sum SlotLedger
	for _, l := range nodes {
		sum.Add(l)
	}
	if sum.Slots() != 30 || init.Slots() != 15 {
		t.Fatalf("ledger totals = %d/%d", sum.Slots(), init.Slots())
	}
}
