package experiment

import (
	"fmt"
	"sync"

	"tcast/internal/audit"
	"tcast/internal/baseline"
	"tcast/internal/core"
	"tcast/internal/count"
	"tcast/internal/energy"
	"tcast/internal/fastsim"
	"tcast/internal/idset"
	"tcast/internal/kplus"
	"tcast/internal/multihop"
	"tcast/internal/pollcast"
	"tcast/internal/rng"
	"tcast/internal/stats"
	"tcast/internal/timing"
	"tcast/internal/trace"
)

// This file registers the extension experiments that go beyond the
// paper's printed figures: energy (reply transmissions), wall-clock
// latency via the 802.15.4 timing model, the multihop interference study
// the paper lists as future work, and the identification/estimation
// primitives from the companion group-testing framework.

// channels pools the extension tables' abstract channels. ResetRandom
// draws exactly what fastsim.RandomPositives draws, so a pooled channel
// answers and counts like a fresh one.
var channels = sync.Pool{New: func() any { return new(pooledChannel) }}

// pooledChannel is a channel with the stream it draws from.
type pooledChannel struct {
	ch  fastsim.Channel
	chr rng.Source
}

// randomChannel draws a pooled channel of defaultN nodes with x random
// positives from r.Split(1), as fastsim.RandomPositives would, and
// returns it with its pool entry. Put pc back in channels once the trial
// is done with ch.
func randomChannel(x int, r *rng.Source) (pc *pooledChannel, ch *fastsim.Channel) {
	pc = channels.Get().(*pooledChannel)
	r.SplitInto(1, &pc.chr)
	pc.ch.ResetRandom(defaultN, x, fastsim.DefaultConfig(), &pc.chr)
	return pc, &pc.ch
}

func init() {
	register(Experiment{
		ID:    "ext-energy",
		Title: "Extension: reply transmissions per scheme (N=128, t=16) — the energy cost",
		Run: func(o Options) (*stats.Table, error) {
			root := rng.New(o.Seed)
			xs := xSweep(defaultN, defaultT)
			tab := &stats.Table{
				Title:  "positive-node transmissions until the threshold decision",
				XLabel: "positive nodes x", YLabel: "reply frames sent",
			}
			// tcast: every positive in a polled bin transmits once per
			// poll of that bin.
			algReplies := func(alg core.Algorithm) func(int, Options) pointCost {
				return func(x int, _ Options) pointCost {
					return func(_ int, r *rng.Source) (float64, error) {
						pc, ch := randomChannel(x, r)
						defer channels.Put(pc)
						if _, err := alg.Run(ch, defaultN, defaultT, r.Split(2)); err != nil {
							return 0, err
						}
						return float64(ch.Stats().Replies), nil
					}
				}
			}
			for i, alg := range []core.Algorithm{core.TwoTBins{}, core.ProbABNS{}} {
				s, err := sweep(alg.Name(), xs, o, root.Split(uint64(i)), algReplies(alg))
				if err != nil {
					return nil, err
				}
				tab.Add(s)
			}
			// CSMA: one frame per delivery plus one per collision
			// participant; the simulator counts collision slots, and at
			// least two stations transmit in each.
			csma, err := sweep("CSMA", xs, o, root.Split(10), func(x int, _ Options) pointCost {
				return func(_ int, r *rng.Source) (float64, error) {
					res := baseline.CSMA{}.Run(defaultN, defaultT, x, r.Split(2))
					return float64(res.Delivered + 2*res.Collisions), nil
				}
			})
			if err != nil {
				return nil, err
			}
			tab.Add(csma)
			// Sequential: exactly the positives scheduled before the
			// decision transmit.
			seq, err := sweep("Sequential", xs, o, root.Split(11), func(x int, _ Options) pointCost {
				return func(_ int, r *rng.Source) (float64, error) {
					pos := idset.NewDense(defaultN)
					for _, id := range r.Split(1).Sample(defaultN, x) {
						pos.Add(id)
					}
					res := baseline.Sequential{}.Run(defaultN, defaultT, pos, r.Split(2))
					return float64(res.Delivered), nil
				}
			})
			if err != nil {
				return nil, err
			}
			tab.Add(seq)
			return tab, nil
		},
	})

	register(Experiment{
		ID:    "ext-time",
		Title: "Extension: Fig 1 in wall-clock milliseconds (802.15.4 timing model)",
		Run: func(o Options) (*stats.Table, error) {
			root := rng.New(o.Seed)
			xs := xSweep(defaultN, defaultT)
			costs := timing.DefaultCosts(defaultN)
			tab := &stats.Table{
				Title:  "latency to the threshold decision (ms), CC2420 timing",
				XLabel: "positive nodes x", YLabel: "milliseconds",
			}
			tcastMS := func(alg core.Algorithm) func(int, Options) pointCost {
				return func(x int, _ Options) pointCost {
					return func(_ int, r *rng.Source) (float64, error) {
						pc, ch := randomChannel(x, r)
						defer channels.Put(pc)
						res, err := alg.Run(ch, defaultN, defaultT, r.Split(2))
						if err != nil {
							return 0, err
						}
						return costs.TcastLatency(res.Queries, res.Rounds).Seconds() * 1000, nil
					}
				}
			}
			for i, alg := range []core.Algorithm{core.TwoTBins{}, core.ProbABNS{}} {
				s, err := sweep(alg.Name(), xs, o, root.Split(uint64(i)), tcastMS(alg))
				if err != nil {
					return nil, err
				}
				tab.Add(s)
			}
			csma, err := sweep("CSMA", xs, o, root.Split(10), func(x int, _ Options) pointCost {
				return func(_ int, r *rng.Source) (float64, error) {
					res := baseline.CSMA{}.Run(defaultN, defaultT, x, r.Split(2))
					return costs.CSMALatency(res.Slots, res.Delivered).Seconds() * 1000, nil
				}
			})
			if err != nil {
				return nil, err
			}
			tab.Add(csma)
			seq, err := sweep("Sequential", xs, o, root.Split(11), func(x int, _ Options) pointCost {
				return func(_ int, r *rng.Source) (float64, error) {
					pos := idset.NewDense(defaultN)
					for _, id := range r.Split(1).Sample(defaultN, x) {
						pos.Add(id)
					}
					res := baseline.Sequential{}.Run(defaultN, defaultT, pos, r.Split(2))
					return costs.SequentialLatency(res.Slots).Seconds() * 1000, nil
				}
			})
			if err != nil {
				return nil, err
			}
			tab.Add(seq)
			return tab, nil
		},
	})

	register(Experiment{
		ID:    "ext-battery",
		Title: "Extension: per-participant radio energy (mJ, CC2420 model, N=128, t=16)",
		Run: func(o Options) (*stats.Table, error) {
			root := rng.New(o.Seed)
			xs := xSweep(defaultN, defaultT)
			model := energy.CC2420()
			costs := timing.DefaultCosts(defaultN)
			tab := &stats.Table{
				Title:  "mean participant energy until the threshold decision",
				XLabel: "positive nodes x", YLabel: "millijoules per participant",
			}
			// The auditor's node ledgers count each participant's polls
			// and replies; one pooled auditor per worker keeps its
			// account's slots across trials.
			auditors := sync.Pool{New: func() any { return new(audit.Auditor) }}
			tcastEnergy, err := sweep("tcast (2tBins/backcast)", xs, o, root.Split(1), func(x int, _ Options) pointCost {
				return func(_ int, r *rng.Source) (float64, error) {
					pc, ch := randomChannel(x, r)
					defer channels.Put(pc)
					a := auditors.Get().(*audit.Auditor)
					defer auditors.Put(a)
					if err := a.Reset(ch, audit.Config{N: defaultN, T: defaultT}); err != nil {
						return 0, err
					}
					res, err := (core.TwoTBins{}).Run(a, defaultN, defaultT, r.Split(2))
					if err != nil {
						return 0, err
					}
					v := a.Finish(res.Decision)
					rep := energy.TcastSession(model, costs, res.Rounds, v.Polls, defaultN, v.Nodes.At)
					return rep.MeanNode(), nil
				}
			})
			if err != nil {
				return nil, err
			}
			tab.Add(tcastEnergy)
			csmaEnergy, err := sweep("CSMA", xs, o, root.Split(2), func(x int, _ Options) pointCost {
				return func(_ int, r *rng.Source) (float64, error) {
					ids := r.Split(1).Sample(defaultN, x)
					res := baseline.CSMA{}.Run(defaultN, defaultT, x, r.Split(2))
					rep := energy.CSMASession(model, costs, res.Slots, res.Delivered, defaultN, ids)
					return rep.MeanNode(), nil
				}
			})
			if err != nil {
				return nil, err
			}
			tab.Add(csmaEnergy)
			seqEnergy, err := sweep("Sequential", xs, o, root.Split(3), func(x int, _ Options) pointCost {
				return func(_ int, r *rng.Source) (float64, error) {
					pos := idset.NewDense(defaultN)
					for _, id := range r.Split(1).Sample(defaultN, x) {
						pos.Add(id)
					}
					res := baseline.Sequential{}.Run(defaultN, defaultT, pos, r.Split(2))
					rep := energy.SequentialSession(model, costs, res.Slots, defaultN, pos.Contains, res.Order)
					return rep.MeanNode(), nil
				}
			})
			if err != nil {
				return nil, err
			}
			tab.Add(seqEnergy)
			return tab, nil
		},
	})

	register(Experiment{
		ID:    "ext-multihop",
		Title: "Extension (paper §VII future work): decision errors vs interference coupling",
		Run: func(o Options) (*stats.Table, error) {
			runs := o.runs(100)
			field, err := multihop.NewField(4, 4, 24, 0.8)
			if err != nil {
				return nil, err
			}
			tab := &stats.Table{
				Title:  "4x4 field, 24 nodes/region, t=6, x=2 (FP side) and x=8 (FN side)",
				XLabel: "coupling", YLabel: "error rate",
			}
			pcFP := &stats.Series{Name: "pollcast false-positive rate"}
			bcFP := &stats.Series{Name: "backcast false-positive rate"}
			bcFN := &stats.Series{Name: "backcast false-negative rate (jam)"}
			pcCost := &stats.Series{Name: "pollcast queries/region"}
			bcCost := &stats.Series{Name: "backcast queries/region"}
			positivesLow := make([]int, field.Regions())
			positivesHigh := make([]int, field.Regions())
			for i := range positivesLow {
				positivesLow[i] = 2
				positivesHigh[i] = 8
			}
			for _, coupling := range []float64{0, 0.1, 0.2, 0.4, 0.6, 0.8} {
				var pcErr, bcErr, jamErr int
				var pcQueries, bcQueries int
				total := 0
				for rep := 0; rep < runs; rep++ {
					seed := uint64(rep)*1000 + uint64(coupling*100)
					pc := multihop.Campaign{Field: field, Primitive: pollcast.Pollcast,
						Coupling: coupling, Threshold: 6, Positives: positivesLow}
					_, s, err := pc.Run(seed)
					if err != nil {
						return nil, err
					}
					pcErr += s.FalsePositives
					pcQueries += s.TotalQueries
					bc := multihop.Campaign{Field: field, Primitive: pollcast.Backcast,
						Coupling: coupling, Threshold: 6, Positives: positivesLow}
					_, s, err = bc.Run(seed)
					if err != nil {
						return nil, err
					}
					bcErr += s.FalsePositives
					bcQueries += s.TotalQueries
					jam := multihop.Campaign{Field: field, Primitive: pollcast.Backcast,
						Coupling: coupling, Jam: true, Threshold: 6, Positives: positivesHigh}
					_, s, err = jam.Run(seed)
					if err != nil {
						return nil, err
					}
					jamErr += s.FalseNegatives
					total += field.Regions()
				}
				pcFP.Append(stats.Point{X: coupling, Y: float64(pcErr) / float64(total), N: total})
				bcFP.Append(stats.Point{X: coupling, Y: float64(bcErr) / float64(total), N: total})
				bcFN.Append(stats.Point{X: coupling, Y: float64(jamErr) / float64(total), N: total})
				pcCost.Append(stats.Point{X: coupling, Y: float64(pcQueries) / float64(total), N: total})
				bcCost.Append(stats.Point{X: coupling, Y: float64(bcQueries) / float64(total), N: total})
			}
			tab.Add(pcFP)
			tab.Add(bcFP)
			tab.Add(bcFN)
			tab.Add(pcCost)
			tab.Add(bcCost)
			return tab, nil
		},
	})

	register(Experiment{
		ID:    "ext-kplus",
		Title: "Extension: the companion k+ model — query cost vs radio strength k (N=128)",
		Run: func(o Options) (*stats.Table, error) {
			root := rng.New(o.Seed)
			xs := xSweep(defaultN, defaultT)
			tab := &stats.Table{
				Title:  "k+ threshold querying (t=16): stronger radios resolve bins exactly",
				XLabel: "positive nodes x", YLabel: "queries",
			}
			for i, k := range []int{1, 2, 4, 8} {
				k := k
				s, err := sweep(fmt.Sprintf("k=%d", k), xs, o, root.Split(uint64(i)), func(x int, o Options) pointCost {
					return func(trial int, r *rng.Source) (float64, error) {
						ch := kplus.RandomChannel(k, defaultN, x, r.Split(1))
						res, err := kplus.Threshold(ch, defaultN, defaultT, r.Split(2))
						if err != nil {
							return 0, err
						}
						if b := o.Trace; b != nil {
							// One RCD slot per k+ group query, like fastsim.
							f := b.Fork(trial)
							sp := f.Begin(trace.KindTrial, fmt.Sprintf("trial %d", trial))
							f.Advance(int64(res.Queries))
							sp.SetAttr(
								trace.StringAttr("substrate", "kplus"),
								trace.IntAttr("k", k),
								trace.IntAttr("n", defaultN), trace.IntAttr("t", defaultT), trace.IntAttr("x", x),
								trace.IntAttr("queries", res.Queries),
								trace.BoolAttr("decision", res.Decision),
							)
							f.End()
						}
						if res.Decision != (x >= defaultT) {
							return 0, fmt.Errorf("k=%d wrong decision at x=%d", k, x)
						}
						return float64(res.Queries), nil
					}
				})
				if err != nil {
					return nil, err
				}
				tab.Add(s)
			}
			return tab, nil
		},
	})

	register(Experiment{
		ID:    "ext-count",
		Title: "Extension: identification and cardinality estimation cost (N=128)",
		Run: func(o Options) (*stats.Table, error) {
			root := rng.New(o.Seed)
			xs := xSweep(defaultN, defaultT)
			tab := &stats.Table{
				Title:  "polls to identify every positive vs. to estimate their count",
				XLabel: "positive nodes x", YLabel: "queries",
			}
			ident, err := sweep("Identify (exact set)", xs, o, root.Split(1), func(x int, _ Options) pointCost {
				return func(_ int, r *rng.Source) (float64, error) {
					pc, ch := randomChannel(x, r)
					defer channels.Put(pc)
					got, queries, err := count.Identify(ch, defaultN)
					if err != nil {
						return 0, err
					}
					if len(got) != ch.Positives() {
						return 0, fmt.Errorf("identification missed positives at x=%d", x)
					}
					return float64(queries), nil
				}
			})
			if err != nil {
				return nil, err
			}
			tab.Add(ident)
			est, err := sweep("Estimate (±2x)", xs, o, root.Split(2), func(x int, _ Options) pointCost {
				return func(_ int, r *rng.Source) (float64, error) {
					pc, ch := randomChannel(x, r)
					defer channels.Put(pc)
					members := make([]int, defaultN)
					for i := range members {
						members[i] = i
					}
					_, queries := count.Estimate(ch, members, count.EstimateOptions{Repeats: 16}, r.Split(2))
					return float64(queries), nil
				}
			})
			if err != nil {
				return nil, err
			}
			tab.Add(est)
			thresh, err := sweep("Threshold (2tBins, t=16)", xs, o, root.Split(3), func(x int, o Options) pointCost {
				return tcastCost(core.TwoTBins{}, defaultN, defaultT, x, fastsim.DefaultConfig(), o)
			})
			if err != nil {
				return nil, err
			}
			tab.Add(thresh)
			return tab, nil
		},
	})
}
