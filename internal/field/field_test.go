package field

import (
	"math"
	"testing"
	"testing/quick"

	"tcast/internal/rng"
)

func mustGrid(t *testing.T, cols, rows int, spacing, rr float64) *Deployment {
	t.Helper()
	d, err := Grid(cols, rows, spacing, rr)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGridValidation(t *testing.T) {
	for _, tc := range []struct {
		cols, rows  int
		spacing, rr float64
	}{
		{0, 3, 1, 1}, {3, 0, 1, 1}, {3, 3, 0, 1}, {3, 3, 1, 0},
	} {
		if _, err := Grid(tc.cols, tc.rows, tc.spacing, tc.rr); err == nil {
			t.Errorf("Grid(%+v) accepted", tc)
		}
	}
}

func TestGridAdjacency(t *testing.T) {
	// Spacing 10, range 10: 4-neighborhoods (diagonals are ~14.1m away).
	d := mustGrid(t, 3, 3, 10, 10)
	if d.N() != 9 {
		t.Fatalf("N = %d", d.N())
	}
	// Center node (index 4) has 4 neighbors.
	if got := len(d.Neighbors(4)); got != 4 {
		t.Fatalf("center neighbors = %d, want 4", got)
	}
	// Corner has 2.
	if got := len(d.Neighbors(0)); got != 2 {
		t.Fatalf("corner neighbors = %d, want 2", got)
	}
	// Range 15 adds diagonals: center gets 8.
	d = mustGrid(t, 3, 3, 10, 15)
	if got := len(d.Neighbors(4)); got != 8 {
		t.Fatalf("center neighbors with diagonals = %d, want 8", got)
	}
}

func TestNodesWithin(t *testing.T) {
	d := mustGrid(t, 3, 3, 10, 10)
	got := d.NodesWithin(Point{X: 10, Y: 10}, 10.5)
	// Center + its 4 axial neighbors.
	if len(got) != 5 {
		t.Fatalf("NodesWithin = %v", got)
	}
	if all := d.NodesWithin(Point{X: 10, Y: 10}, 1000); len(all) != 9 {
		t.Fatalf("big radius missed nodes: %v", all)
	}
	if none := d.NodesWithin(Point{X: -100, Y: -100}, 1); len(none) != 0 {
		t.Fatalf("far point sensed nodes: %v", none)
	}
}

func TestNearest(t *testing.T) {
	d := mustGrid(t, 3, 3, 10, 10)
	if got := d.Nearest(Point{X: 1, Y: 1}); got != 0 {
		t.Fatalf("Nearest = %d, want 0", got)
	}
	if got := d.Nearest(Point{X: 11, Y: 9}); got != 4 {
		t.Fatalf("Nearest = %d, want center", got)
	}
}

func TestBFSTreeProperties(t *testing.T) {
	d := mustGrid(t, 5, 4, 10, 10)
	tree, err := d.BFSTree(0)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Parent[0] != -1 || tree.Depth[0] != 0 {
		t.Fatal("sink not rooted")
	}
	for i := 1; i < d.N(); i++ {
		p := tree.Parent[i]
		if p < 0 {
			t.Fatalf("node %d unparented", i)
		}
		if d.Pos[i].Dist(d.Pos[p]) > d.Range {
			t.Fatalf("node %d's parent %d out of radio range", i, p)
		}
		if tree.Depth[i] != tree.Depth[p]+1 {
			t.Fatalf("depth inconsistency at %d", i)
		}
		// BFS optimality on a grid: depth equals Manhattan hop distance.
		wantDepth := int(math.Abs(d.Pos[i].X-d.Pos[0].X)/10 + math.Abs(d.Pos[i].Y-d.Pos[0].Y)/10)
		if tree.Depth[i] != wantDepth {
			t.Fatalf("node %d depth %d, want %d", i, tree.Depth[i], wantDepth)
		}
	}
}

func TestBFSTreeDisconnected(t *testing.T) {
	d, err := New([]Point{{0, 0}, {100, 100}}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.BFSTree(0); err == nil {
		t.Fatal("disconnected deployment accepted")
	}
	if _, err := d.BFSTree(9); err == nil {
		t.Fatal("out-of-range sink accepted")
	}
}

func TestDeliverLossless(t *testing.T) {
	d := mustGrid(t, 6, 1, 10, 10)
	tree, _ := d.BFSTree(0)
	del := Convergecast{}.Deliver(tree, 5, rng.New(1))
	if !del.Delivered || del.Hops != 5 || del.Transmissions != 5 {
		t.Fatalf("lossless delivery: %+v", del)
	}
}

func TestDeliverWithLossRetries(t *testing.T) {
	d := mustGrid(t, 6, 1, 10, 10)
	tree, _ := d.BFSTree(0)
	root := rng.New(2)
	delivered, totalTx := 0, 0
	const trials = 500
	for i := 0; i < trials; i++ {
		del := Convergecast{LossProb: 0.3, MaxRetries: 5}.Deliver(tree, 5, root.Split(uint64(i)))
		if del.Delivered {
			delivered++
		}
		totalTx += del.Transmissions
	}
	// P(hop fails) = 0.3^6 ≈ 0.07%; over 5 hops nearly all deliveries
	// succeed, with ~1/0.7 transmissions per hop.
	if delivered < trials*95/100 {
		t.Fatalf("only %d/%d delivered", delivered, trials)
	}
	meanTx := float64(totalTx) / trials
	if meanTx < 5.5 || meanTx > 9 {
		t.Fatalf("mean transmissions %v, want ≈ 5/0.7 ≈ 7.1", meanTx)
	}
}

func TestDeliverCanFail(t *testing.T) {
	d := mustGrid(t, 3, 1, 10, 10)
	tree, _ := d.BFSTree(0)
	root := rng.New(3)
	failed := false
	for i := 0; i < 200; i++ {
		del := Convergecast{LossProb: 0.9, MaxRetries: 1}.Deliver(tree, 2, root.Split(uint64(i)))
		if !del.Delivered {
			failed = true
			if del.Transmissions == 0 {
				t.Fatal("failure without transmissions")
			}
		}
	}
	if !failed {
		t.Fatal("90% loss with 1 retry never failed")
	}
}

// TestQuickTreePaths: every node's parent chain reaches the sink in depth
// hops, each hop in radio range.
func TestQuickTreePaths(t *testing.T) {
	f := func(seed uint64, colsRaw, rowsRaw uint8) bool {
		cols := int(colsRaw%6) + 1
		rows := int(rowsRaw%6) + 1
		d, err := Grid(cols, rows, 10, 10)
		if err != nil {
			return false
		}
		sink := int(seed) % d.N()
		if sink < 0 {
			sink = -sink
		}
		tree, err := d.BFSTree(sink)
		if err != nil {
			return false
		}
		for i := 0; i < d.N(); i++ {
			hops := 0
			for u := i; u != sink; u = tree.Parent[u] {
				p := tree.Parent[u]
				if p < 0 || hops > d.N() || d.Pos[u].Dist(d.Pos[p]) > d.Range {
					return false
				}
				hops++
			}
			if hops != tree.Depth[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDeliverSlotsMatchTransmissions(t *testing.T) {
	// Virtual time prices one slot per transmission, so the two ledgers
	// must agree on every path — delivered or not.
	d := mustGrid(t, 6, 1, 10, 10)
	tree, _ := d.BFSTree(0)
	root := rng.New(4)
	for i := 0; i < 200; i++ {
		del := Convergecast{LossProb: 0.4, MaxRetries: 2}.Deliver(tree, 5, root.Split(uint64(i)))
		if del.Slots != del.Transmissions {
			t.Fatalf("trial %d: Slots = %d, Transmissions = %d", i, del.Slots, del.Transmissions)
		}
	}
}

func TestDeliverExhaustedRetriesCountedOnce(t *testing.T) {
	// Regression: the final failed attempt of an exhausted hop must be
	// priced exactly once. LossProb=1 with MaxRetries=1 means the first
	// hop sends the initial attempt plus one retry and gives up:
	// exactly 2 transmissions and 2 slots, zero hops beyond the first.
	d := mustGrid(t, 3, 1, 10, 10)
	tree, _ := d.BFSTree(0)
	del := Convergecast{LossProb: 1, MaxRetries: 1}.Deliver(tree, 2, rng.New(5))
	if del.Delivered {
		t.Fatal("delivery over a fully lossy channel must fail")
	}
	if del.Hops != 1 || del.Transmissions != 2 || del.Slots != 2 {
		t.Fatalf("exhausted-retries delivery = %+v, want Hops=1 Transmissions=2 Slots=2", del)
	}
}
