// Package field models the physical deployment around the singlehop
// primitive: node positions, unit-disk connectivity, event sensing, and
// tree convergecast to a basestation. The paper's motivating intrusion
// applications ("A Line in the Sand", ExScal) follow the pipeline
// detect → confirm with tcast in the singlehop neighborhood → report to
// the basestation; this package supplies the first and last stages so the
// examples can run the pipeline end to end.
package field

import (
	"fmt"
	"math"

	"tcast/internal/rng"
)

// Point is a position in meters.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between two points.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Deployment is a set of placed nodes with unit-disk radio connectivity.
type Deployment struct {
	// Pos holds each node's position.
	Pos []Point
	// Range is the radio range in meters.
	Range float64
	adj   [][]int
}

// Grid places cols×rows nodes on a regular grid with the given spacing.
func Grid(cols, rows int, spacing, radioRange float64) (*Deployment, error) {
	if cols <= 0 || rows <= 0 {
		return nil, fmt.Errorf("field: non-positive grid %dx%d", cols, rows)
	}
	if spacing <= 0 || radioRange <= 0 {
		return nil, fmt.Errorf("field: non-positive spacing %v or range %v", spacing, radioRange)
	}
	pos := make([]Point, 0, cols*rows)
	for y := 0; y < rows; y++ {
		for x := 0; x < cols; x++ {
			pos = append(pos, Point{X: float64(x) * spacing, Y: float64(y) * spacing})
		}
	}
	return New(pos, radioRange)
}

// New builds a deployment from explicit positions.
func New(pos []Point, radioRange float64) (*Deployment, error) {
	if radioRange <= 0 {
		return nil, fmt.Errorf("field: non-positive range %v", radioRange)
	}
	d := &Deployment{Pos: append([]Point(nil), pos...), Range: radioRange}
	d.adj = make([][]int, len(pos))
	for i := range pos {
		for j := i + 1; j < len(pos); j++ {
			if pos[i].Dist(pos[j]) <= radioRange {
				d.adj[i] = append(d.adj[i], j)
				d.adj[j] = append(d.adj[j], i)
			}
		}
	}
	return d, nil
}

// N returns the number of nodes.
func (d *Deployment) N() int { return len(d.Pos) }

// Neighbors returns the nodes within radio range of i (excluding i).
func (d *Deployment) Neighbors(i int) []int { return d.adj[i] }

// NodesWithin returns the nodes whose positions lie within radius of p —
// the sensing footprint of an event at p.
func (d *Deployment) NodesWithin(p Point, radius float64) []int {
	var out []int
	for i, q := range d.Pos {
		if p.Dist(q) <= radius {
			out = append(out, i)
		}
	}
	return out
}

// Nearest returns the node closest to p.
func (d *Deployment) Nearest(p Point) int {
	best, bestDist := 0, math.Inf(1)
	for i, q := range d.Pos {
		if dist := p.Dist(q); dist < bestDist {
			best, bestDist = i, dist
		}
	}
	return best
}

// Tree is a convergecast routing tree rooted at a sink (the basestation).
type Tree struct {
	Sink   int
	Parent []int // Parent[sink] == -1
	Depth  []int
}

// BFSTree builds the hop-minimal routing tree toward sink. It fails if
// any node cannot reach the sink.
func (d *Deployment) BFSTree(sink int) (*Tree, error) {
	n := d.N()
	if sink < 0 || sink >= n {
		return nil, fmt.Errorf("field: sink %d out of range", sink)
	}
	t := &Tree{Sink: sink, Parent: make([]int, n), Depth: make([]int, n)}
	for i := range t.Parent {
		t.Parent[i] = -2 // unvisited
	}
	t.Parent[sink] = -1
	queue := []int{sink}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range d.adj[u] {
			if t.Parent[v] == -2 {
				t.Parent[v] = u
				t.Depth[v] = t.Depth[u] + 1
				queue = append(queue, v)
			}
		}
	}
	for i, p := range t.Parent {
		if p == -2 {
			return nil, fmt.Errorf("field: node %d cannot reach sink %d", i, sink)
		}
	}
	return t, nil
}

// Convergecast delivers reports hop by hop up the tree with per-hop loss
// and bounded retransmissions.
type Convergecast struct {
	// LossProb is the per-transmission loss probability on each hop.
	LossProb float64
	// MaxRetries bounds retransmissions per hop (0 means 3).
	MaxRetries int
}

// Delivery reports one convergecast attempt.
type Delivery struct {
	// Delivered reports whether the report reached the sink.
	Delivered bool
	// Hops is the path length attempted.
	Hops int
	// Transmissions counts every frame sent, including retries.
	Transmissions int
	// Slots is the virtual-time cost of the delivery: one slot per
	// transmission, the final failed attempt of an exhausted hop
	// included exactly once — the same pricing the query-layer retry
	// middleware uses, so convergecast and singlehop costs share an axis.
	Slots int
}

// Deliver sends one report from node up the tree.
func (c Convergecast) Deliver(t *Tree, from int, r *rng.Source) Delivery {
	retries := c.MaxRetries
	if retries <= 0 {
		retries = 3
	}
	var del Delivery
	for from != t.Sink {
		del.Hops++
		sent := false
		for attempt := 0; attempt <= retries; attempt++ {
			del.Transmissions++
			del.Slots++
			if !r.Bernoulli(c.LossProb) {
				sent = true
				break
			}
		}
		if !sent {
			return del
		}
		from = t.Parent[from]
	}
	del.Delivered = true
	return del
}
