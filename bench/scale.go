package main

import (
	"fmt"
	"time"

	"tcast/internal/core"
	"tcast/internal/fastsim"
	"tcast/internal/query"
	"tcast/internal/rng"
)

// scaleX and scaleT are ext-scale's threshold point: x = t = 16, so every
// session must decide true.
const scaleX, scaleT = 16, 16

// scaleSize is one field size of the scale workload and its sessions per
// pass. n = 2^14 sits at idset.SparseCutover, so the streamed round path
// runs at every size and the classic one at none.
type scaleSize struct{ n, sessions int }

// A pass is ~1.3 s on a 2-vCPU Xeon. The sessions at 10^6 are 2 of every
// 100, so p99_ms lands near their median, which twenty-odd of them pin
// down; a smaller share would put it among the 2^14 sessions' own tail,
// a larger one in the tail of a handful of 10^6 sessions. n = 10^7 is left
// out: one session there takes ~4.5 s, too few per run to read from.
var (
	scaleSizes      = []scaleSize{{1 << 14, 98}, {1_000_000, 2}}
	shortScaleSizes = []scaleSize{{1 << 14, 4}, {1_000_000, 1}}
)

// scaleSetups is how many fresh pooled states set-up builds; set-up is
// reported as their median.
const scaleSetups = 7

// scaleState is one pooled trial state serving every field size, as
// cmd/tcastbench's sparse pair keeps one: the O(N) buffers are sized once
// and reused.
type scaleState struct {
	ch        fastsim.Channel
	arena     core.Arena
	r         rng.Source
	chr, algr rng.Source
}

// reset prepares trial i of field size n on the pooled state: the channel
// from Split(1) and the algorithm stream from Split(2), as every harness
// derives them.
func (st *scaleState) reset(root *rng.Source, i uint64, n, x int) {
	root.SplitInto(i, &st.r)
	st.r.SplitInto(1, &st.chr)
	st.ch.ResetRandom(n, x, fastsim.DefaultConfig(), &st.chr)
	st.r.SplitInto(2, &st.algr)
}

// run executes the prepared session through q (the channel itself, or a
// layer over it).
func (st *scaleState) run(q query.Querier, n int) (core.Result, error) {
	return core.RunIn(&st.arena, core.TwoTBins{}, q, n, scaleT, &st.algr)
}

func (st *scaleState) session(root *rng.Source, i uint64, n, x int) (core.Result, error) {
	st.reset(root, i, n, x)
	return st.run(&st.ch, n)
}

// size builds a pooled state's buffers for field size n: the first
// ResetRandom at n and one empty-field session, which allocates every
// O(N) buffer a session needs.
func (st *scaleState) size(n int) error {
	res, err := st.session(rng.New(0), 0, n, 0)
	if err == nil && res.Decision {
		err = fmt.Errorf("empty field of %d decided true", n)
	}
	return err
}

func scaleSizesFor(short bool) []scaleSize {
	if short {
		return shortScaleSizes
	}
	return scaleSizes
}

// runScale is the scale workload: serial bare 2tBins on one pooled state.
// Set-up sizes a fresh state at every field size, scaleSetups times. Each
// pass then runs sessions no earlier pass ran, so a run reads the sessions
// at 10^6 from twenty-odd draws rather than the same two repeated; wall_s
// is the mean pass. Every sizing and every session is timed after a
// run of the host-speed reference and scaled by it.
func runScale(c *child) error {
	c.ready()
	sizes := scaleSizesFor(c.opts.short)
	var st *scaleState
	for k := 0; k < scaleSetups; k++ {
		st = new(scaleState)
		f, err := c.scale()
		if err != nil {
			return err
		}
		start := time.Now()
		for _, sz := range sizes {
			if err := st.size(sz.n); err != nil {
				return err
			}
		}
		c.rep.Setup = append(c.rep.Setup, f*time.Since(start).Seconds())
	}
	var log opLog
	var pass []float64
	start := time.Now()
	for len(pass) == 0 || time.Since(start) < c.measure() {
		sum := 0.0
		for _, sz := range sizes {
			root := rng.New(c.opts.seed).Split(uint64(sz.n))
			for j := 0; j < sz.sessions; j++ {
				i := len(pass)*sz.sessions + j
				f, err := c.scale()
				if err != nil {
					return err
				}
				t0 := time.Now()
				res, err := st.session(root, uint64(i), sz.n, scaleX)
				d := time.Duration(f * float64(time.Since(t0)))
				if err == nil && !res.Decision {
					err = fmt.Errorf("session %d at n=%d decided false with x=t", i, sz.n)
				}
				if err != nil {
					c.progress("FAIL %v", err)
				}
				log.add(d, err == nil)
				sum += d.Seconds()
			}
		}
		pass = append(pass, sum)
	}
	measured := time.Since(start)
	c.emit(&log, mean(pass), log.lat.percentile(0.50), log.lat.percentile(0.99), measured)
	c.rep.note("%d passes of %v (n, sessions)", len(pass), sizes)
	return nil
}
