// Package multihop implements the paper's stated future work (Section
// VII): evaluating tcast "in a multihop network environment with
// interfering traffic". A Field is a grid of single-hop regions, each
// running its own threshold-query session; traffic offered by neighboring
// regions appears at a region's initiator as external interference, with
// the coupling attenuated by distance-one propagation.
//
// The experiment the package supports is exactly the Section III-B
// argument: pollcast's CCA sensing converts neighbor traffic into
// false-positive "non-empty" bins, while backcast's HACK gating is immune
// to false positives but can suffer false negatives when interference
// jams HACK reception.
package multihop

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"tcast/internal/core"
	"tcast/internal/pollcast"
	"tcast/internal/query"
	"tcast/internal/radio"
	"tcast/internal/rng"
)

// Field is a Width×Height grid of single-hop regions.
type Field struct {
	Width, Height int
	// NodesPerRegion is the participant count of each region's
	// neighborhood.
	NodesPerRegion int
	// Load is the per-region offered load: the probability that the
	// region occupies a given slot with its own traffic. Length must be
	// Width*Height.
	Load []float64
}

// NewField builds a grid with uniform offered load.
func NewField(width, height, nodesPerRegion int, load float64) (*Field, error) {
	if width <= 0 || height <= 0 {
		return nil, fmt.Errorf("multihop: non-positive grid %dx%d", width, height)
	}
	if nodesPerRegion <= 0 {
		return nil, fmt.Errorf("multihop: need nodes per region, got %d", nodesPerRegion)
	}
	if load < 0 || load > 1 {
		return nil, fmt.Errorf("multihop: load %v outside [0,1]", load)
	}
	loads := make([]float64, width*height)
	for i := range loads {
		loads[i] = load
	}
	return &Field{Width: width, Height: height, NodesPerRegion: nodesPerRegion, Load: loads}, nil
}

// Regions returns the number of regions in the field.
func (f *Field) Regions() int { return f.Width * f.Height }

// AppendNeighbors appends the 4-neighborhood of region i, in row-major
// order, to out.
func (f *Field) AppendNeighbors(out []int, i int) []int {
	x, y := i%f.Width, i/f.Width
	if y > 0 {
		out = append(out, i-f.Width)
	}
	if x > 0 {
		out = append(out, i-1)
	}
	if x < f.Width-1 {
		out = append(out, i+1)
	}
	if y < f.Height-1 {
		out = append(out, i+f.Width)
	}
	return out
}

// InterferenceAt returns the per-slot probability that region i's
// initiator senses energy from neighboring regions: each neighbor with
// offered load L contributes an independent busy probability L·coupling.
func (f *Field) InterferenceAt(i int, coupling float64) float64 {
	quiet := 1.0
	var hood [4]int
	for _, nb := range f.AppendNeighbors(hood[:0], i) {
		quiet *= 1 - f.Load[nb]*coupling
	}
	return 1 - quiet
}

// Campaign runs one threshold query per region, all regions concurrently,
// and grades each decision against the region's configured ground truth.
type Campaign struct {
	Field *Field
	// Primitive selects pollcast (interference-exposed) or backcast
	// (false-positive-immune).
	Primitive pollcast.Primitive
	// Coupling attenuates neighbor load into interference probability.
	Coupling float64
	// Jam makes interference destroy in-region frame decoding too — the
	// mechanism behind backcast false negatives.
	Jam bool
	// Threshold is each region's t.
	Threshold int
	// Positives is each region's ground-truth positive count; length
	// must equal Field.Regions().
	Positives []int
}

// RegionResult grades one region's session.
type RegionResult struct {
	Region   int
	Truth    bool
	Decision bool
	Queries  int
}

// Summary aggregates a campaign.
type Summary struct {
	Regions        int
	FalsePositives int
	FalseNegatives int
	TotalQueries   int
}

// Run executes the campaign on a fixed set of workers, one per available
// CPU, that pull regions off a shared counter. Region i's randomness
// derives from (seed, i), so results are deterministic and independent of
// scheduling and of the worker count.
func (c Campaign) Run(seed uint64) ([]RegionResult, Summary, error) {
	f := c.Field
	if len(c.Positives) != f.Regions() {
		return nil, Summary{}, fmt.Errorf("multihop: %d positive counts for %d regions", len(c.Positives), f.Regions())
	}
	root := rng.New(seed)
	results := make([]RegionResult, f.Regions())
	errs := make([]error, f.Regions())
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), f.Regions()); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := regionPool.Get().(*regionState)
			defer regionPool.Put(st)
			for i := int(next.Add(1) - 1); i < f.Regions(); i = int(next.Add(1) - 1) {
				results[i], errs[i] = c.runRegion(i, root, st)
			}
		}()
	}
	wg.Wait()
	var sum Summary
	sum.Regions = f.Regions()
	for i, err := range errs {
		if err != nil {
			return nil, Summary{}, fmt.Errorf("multihop: region %d: %w", i, err)
		}
		r := results[i]
		sum.TotalQueries += r.Queries
		if r.Decision && !r.Truth {
			sum.FalsePositives++
		}
		if !r.Decision && r.Truth {
			sum.FalseNegatives++
		}
	}
	return results, sum, nil
}

// regionState is the session state one worker reuses from region to
// region, and through regionPool from campaign to campaign: the 2tBins
// arena, the participants and the pollcast session over them, the radio
// medium, the positive-draw buffers and the region's random streams. It
// is used by one goroutine at a time.
type regionState struct {
	arena core.Arena
	med   radio.Medium
	parts []pollcast.Participant
	// sess holds one session per primitive over parts, so campaigns
	// that alternate pollcast and backcast rebuild neither.
	sess map[pollcast.Primitive]*pollcast.Session
	// pos and idx are SampleInto's result and scratch buffers.
	pos, idx []int
	// region is root.Split(i); draw, medium and alg are its splits 1, 2
	// and 3, which draw the positives, drive the radio and run 2tBins.
	region, draw, medium, alg rng.Source
}

var regionPool = sync.Pool{New: func() any { return new(regionState) }}

// initiatorID is every region's initiator address, outside the
// participants' 0..n-1.
const initiatorID = 1 << 16

// session returns the state's session over n participants with primitive
// prim, building the participants when n changes and the session when
// the state has none for prim yet.
func (st *regionState) session(n int, prim pollcast.Primitive) (*pollcast.Session, error) {
	if len(st.parts) != n || st.sess == nil {
		st.parts = make([]pollcast.Participant, n)
		for id := range st.parts {
			st.parts[id].ID = id
		}
		st.sess = make(map[pollcast.Primitive]*pollcast.Session)
	}
	if sess := st.sess[prim]; sess != nil {
		return sess, nil
	}
	ptrs := make([]*pollcast.Participant, n)
	for id := range st.parts {
		ptrs[id] = &st.parts[id]
	}
	sess, err := pollcast.NewSession(nil, initiatorID, ptrs, prim, query.OnePlus)
	if err != nil {
		return nil, err
	}
	st.sess[prim] = sess
	return sess, nil
}

func (c Campaign) runRegion(i int, root *rng.Source, st *regionState) (RegionResult, error) {
	f := c.Field
	n := f.NodesPerRegion
	x := c.Positives[i]
	if x < 0 || x > n {
		return RegionResult{}, fmt.Errorf("x=%d outside [0,%d]", x, n)
	}
	sess, err := st.session(n, c.Primitive)
	if err != nil {
		return RegionResult{}, err
	}
	root.SplitInto(uint64(i), &st.region)
	st.region.SplitInto(1, &st.draw)
	st.pos, st.idx = st.draw.SampleInto(n, x, st.pos, st.idx)
	for id := range st.parts {
		st.parts[id].Positive = false
	}
	for _, id := range st.pos {
		st.parts[id].Positive = true
	}
	st.region.SplitInto(2, &st.medium)
	st.med.Reset(radio.Config{
		InterferenceProb: f.InterferenceAt(i, c.Coupling),
		InterferenceJams: c.Jam,
	}, &st.medium)
	sess.Reset(&st.med)
	st.region.SplitInto(3, &st.alg)
	res, err := (core.TwoTBins{}).RunIn(&st.arena, sess, n, c.Threshold, &st.alg)
	if err != nil {
		return RegionResult{}, err
	}
	return RegionResult{
		Region:   i,
		Truth:    x >= c.Threshold,
		Decision: res.Decision,
		Queries:  res.Queries,
	}, nil
}
