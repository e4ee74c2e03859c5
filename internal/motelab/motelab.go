// Package motelab is the central controlling unit of the Section IV-D
// experiments — the paper's laptop. It boots an initiator and a set of
// participant motes, connects to each over its serial interface, and runs
// batches of TCast trials: configure the motes with the run settings,
// stimulate the initiator to query, collect the result, reboot everything,
// repeat. Because the lab knows the ground truth it configured, it can
// grade every run for false positives/negatives and attribute errors to
// the number of superposing HACKs in the failing group — the analysis
// behind Figure 4 and the 1.4% error-rate report.
package motelab

import (
	"fmt"
	"strconv"

	"tcast/internal/audit"
	"tcast/internal/core"
	"tcast/internal/metrics"
	"tcast/internal/mote"
	"tcast/internal/obs"
	"tcast/internal/query"
	"tcast/internal/radio"
	"tcast/internal/rng"
	"tcast/internal/trace"
)

// Config describes the emulated testbed.
type Config struct {
	// Participants is the number of participant motes (the paper
	// deploys 12 plus the initiator).
	Participants int
	// MissProb is the per-HACK-copy reception-loss probability. The
	// default 0.05 is calibrated so the paper's campaign (thresholds
	// 2/4/6, 100 runs per configuration) lands near the reported 1.4%
	// aggregate false-negative rate (measured: 1.54% at seed 2011),
	// with errors concentrated in single-HACK groups and essentially
	// none in superposed groups.
	MissProb float64
	// PerMoteMiss, when non-nil, assigns each mote its own HACK-loss
	// probability (length Participants), overriding MissProb. Real
	// testbeds have bad links — a far or occluded mote loses more
	// frames — and per-mote loss lets the lab reproduce error
	// concentration on specific motes.
	PerMoteMiss []float64
	// Seed drives all lab randomness.
	Seed uint64
	// Metrics, when non-nil, receives every group poll of the campaign
	// (replayed from the initiator's trace) and per-session totals,
	// under the same instrument names as the simulation substrates.
	Metrics *metrics.Registry
	// Trace, when non-nil, receives virtual-time spans for every run:
	// trial → session → poll, replayed from the initiator's poll record
	// at backcast cost (3 RCD slots per group query). The lab runs
	// trials sequentially, so span order depends only on the seed.
	Trace *trace.Builder
	// Audit, when non-nil, grades every run's poll record against the
	// ground truth the lab configured (audit.GradeReplay over the
	// initiator's trace), attributing each wrong decision to its first
	// causal poll.
	Audit *audit.Collector
	// Obs, when non-nil, streams each run onto the bus: session start,
	// one poll event per group query (replayed from the initiator's
	// trace), and a graded verdict — wrong decisions raise anomaly
	// events carrying the causal poll, which trip a subscribed flight
	// recorder. The lab runs sequentially, so the stream order depends
	// only on the seed.
	Obs *obs.Bus
}

// DefaultConfig returns the paper's testbed shape.
func DefaultConfig() Config {
	return Config{Participants: 12, MissProb: 0.05, Seed: 1}
}

// Stats aggregates a batch of graded TCast runs.
type Stats struct {
	// Trials is the number of TCast runs graded.
	Trials int
	// FalsePositives counts runs deciding true with ground truth x < t.
	FalsePositives int
	// FalseNegatives counts runs deciding false with ground truth
	// x >= t.
	FalseNegatives int
	// TotalQueries sums group polls across runs.
	TotalQueries int
	// MissedBySuperposition[k] counts group queries in which the polled
	// bin held k ground-truth positives but the initiator heard
	// silence — the radio-irregularity events behind false negatives.
	MissedBySuperposition map[int]int
	// QueriesBySuperposition[k] counts all group queries whose bin held
	// k ground-truth positives.
	QueriesBySuperposition map[int]int
	// MissedByMote counts, for each positive mote, the miss events it
	// was involved in — how error mass distributes over (possibly
	// heterogeneous) links.
	MissedByMote map[int]int
}

// ErrorRate returns the fraction of graded runs with a wrong decision.
func (s Stats) ErrorRate() float64 {
	if s.Trials == 0 {
		return 0
	}
	return float64(s.FalsePositives+s.FalseNegatives) / float64(s.Trials)
}

// AvgQueries returns the mean group polls per run.
func (s Stats) AvgQueries() float64 {
	if s.Trials == 0 {
		return 0
	}
	return float64(s.TotalQueries) / float64(s.Trials)
}

// MissRate returns the fraction of k-positive group queries that were
// wrongly heard as silence.
func (s Stats) MissRate(k int) float64 {
	if s.QueriesBySuperposition[k] == 0 {
		return 0
	}
	return float64(s.MissedBySuperposition[k]) / float64(s.QueriesBySuperposition[k])
}

// Merge folds other into s.
func (s *Stats) Merge(other Stats) {
	s.Trials += other.Trials
	s.FalsePositives += other.FalsePositives
	s.FalseNegatives += other.FalseNegatives
	s.TotalQueries += other.TotalQueries
	for k, v := range other.MissedBySuperposition {
		s.MissedBySuperposition[k] += v
	}
	for k, v := range other.QueriesBySuperposition {
		s.QueriesBySuperposition[k] += v
	}
	for id, v := range other.MissedByMote {
		s.MissedByMote[id] += v
	}
}

func newStats() Stats {
	return Stats{
		MissedBySuperposition:  make(map[int]int),
		QueriesBySuperposition: make(map[int]int),
		MissedByMote:           make(map[int]int),
	}
}

// Lab is a running emulated testbed.
type Lab struct {
	cfg       Config
	root      *rng.Source
	parts     []*mote.Participant
	initiator *mote.Initiator

	// The controller's per-run scratch, reused run after run: the run's
	// stream, the positive draw (SampleInto's result and scratch) and
	// each mote's configured predicate.
	r        rng.Source
	ids, idx []int
	positive []bool
}

// initiatorID keeps the querying mote's radio ID clear of the
// participants' 0..n-1 range.
const initiatorID = 1 << 16

// New boots the testbed: participant motes 0..Participants-1 plus the
// initiator, sharing one radio medium.
func New(cfg Config) (*Lab, error) {
	if cfg.Participants <= 0 {
		return nil, fmt.Errorf("motelab: need at least one participant, got %d", cfg.Participants)
	}
	if cfg.PerMoteMiss != nil && len(cfg.PerMoteMiss) != cfg.Participants {
		return nil, fmt.Errorf("motelab: %d per-mote loss rates for %d motes", len(cfg.PerMoteMiss), cfg.Participants)
	}
	root := rng.New(cfg.Seed)
	radioCfg := radio.Config{MissProb: cfg.MissProb}
	if cfg.PerMoteMiss != nil {
		perMote := append([]float64(nil), cfg.PerMoteMiss...)
		radioCfg.MissProbFor = func(src int) float64 {
			if src >= 0 && src < len(perMote) {
				return perMote[src]
			}
			return cfg.MissProb
		}
	}
	med := radio.NewMedium(radioCfg, root.Split(1))
	parts := make([]*mote.Participant, cfg.Participants)
	for i := range parts {
		parts[i] = mote.NewParticipant(i)
	}
	ini := mote.NewInitiator(initiatorID, med, parts, root.Split(2))
	return &Lab{cfg: cfg, root: root, parts: parts, initiator: ini}, nil
}

// RunBatch performs repeats TCast runs with exactly x positive motes and
// the given threshold, grading each against the configured ground truth.
func (l *Lab) RunBatch(threshold, x, repeats int) (Stats, error) {
	if x < 0 || x > len(l.parts) {
		return Stats{}, fmt.Errorf("motelab: x=%d out of range [0,%d]", x, len(l.parts))
	}
	stats := newStats()
	var (
		tap       query.Tap
		rp        replay
		mo        metrics.Observer
		so        trace.Observer
		pub       obs.Publisher
		observers []query.Observer
	)
	if len(l.positive) != len(l.parts) {
		l.positive = make([]bool, len(l.parts))
	}
	positive := l.positive
	for rep := 0; rep < repeats; rep++ {
		l.root.SplitInto(uint64(threshold)<<40|uint64(x)<<20|uint64(rep), &l.r)

		// Reboot everything "to remove the effect of the previous run".
		l.initiator.Reboot()
		for _, p := range l.parts {
			p.Reboot()
		}

		// Configure the run: x random positives and the threshold.
		clear(positive)
		l.ids, l.idx = l.r.SampleInto(len(l.parts), x, l.ids, l.idx)
		for _, id := range l.ids {
			positive[id] = true
		}
		for _, p := range l.parts {
			p.Configure(positive[p.ID()])
		}
		l.initiator.Configure(threshold)

		// Stimulate the query and collect the result.
		outcome, err := l.initiator.Query()
		if err != nil {
			return Stats{}, err
		}

		// Replay the initiator's poll record through a Tap, so the metrics,
		// span and bus observers see the run as they see a live session.
		var label string
		bus := l.cfg.Obs
		if l.cfg.Audit != nil || bus != nil {
			label = fmt.Sprintf("motelab/%s/t=%d/x=%d/rep=%d", core.TwoTBins{}.Name(), threshold, x, rep)
		}
		observers = observers[:0]
		if m := l.cfg.Metrics; m != nil {
			mo.Reset(m)
			observers = append(observers, &mo)
		}
		b := l.cfg.Trace
		if b != nil {
			observers = append(observers, &so)
		}
		if bus != nil {
			pub = obs.Publisher{Bus: bus, Session: label, Trial: rep}
			observers = append(observers, &pub)
			obs.PublishSessionStart(bus, label, rep)
		}
		rp = replay{log: outcome.Trace}
		tap.Reset(&rp, observers...)
		if b != nil {
			b.Begin(trace.KindTrial, "rep "+strconv.Itoa(rep))
			so.Reset(&tap, b)
			so.StartSession(core.TwoTBins{}.Name(),
				trace.StringAttr("substrate", "motelab"), trace.StringAttr("primitive", "backcast"),
				trace.IntAttr("n", len(l.parts)), trace.IntAttr("t", threshold), trace.IntAttr("x", x))
		}
		for _, rec := range outcome.Trace {
			tap.Query(rec.Bin)
		}
		if b != nil {
			so.EndSession(trace.BoolAttr("decision", outcome.Decision), trace.IntAttr("queries", outcome.Queries))
			b.End() // trial
		}
		if l.cfg.Metrics != nil {
			mo.Finish(tap.Polls(), tap.Nodes())
		}
		if bus != nil {
			pub.Flush()
		}
		if l.cfg.Audit != nil || bus != nil {
			// Grade the run from the initiator's poll record. Backcast
			// responses are binary (Empty/Active), so the 1+ traits apply
			// regardless of the firmware's radio.
			polls := make([]audit.ReplayPoll, len(outcome.Trace))
			for i, rec := range outcome.Trace {
				polls[i] = audit.ReplayPoll{Bin: rec.Bin, Resp: rp.response(i)}
			}
			truth := audit.TruthFunc(func(id int) bool { return id >= 0 && id < len(positive) && positive[id] })
			v := audit.GradeReplay(threshold, x, truth,
				query.Traits{Model: query.OnePlus}, polls, outcome.Decision)
			if c := l.cfg.Audit; c != nil {
				c.Add(label, v)
			}
			obs.PublishVerdict(bus, label, rep, v, int64(rp.Slots()), &tap)
		}

		stats.Trials++
		stats.TotalQueries += outcome.Queries
		truth := x >= threshold
		if outcome.Decision && !truth {
			stats.FalsePositives++
		}
		if !outcome.Decision && truth {
			stats.FalseNegatives++
		}
		for _, rec := range outcome.Trace {
			k := 0
			for _, id := range rec.Bin {
				if positive[id] {
					k++
				}
			}
			if k == 0 {
				continue
			}
			stats.QueriesBySuperposition[k]++
			if rec.Empty {
				stats.MissedBySuperposition[k]++
				for _, id := range rec.Bin {
					if positive[id] {
						stats.MissedByMote[id]++
					}
				}
			}
		}
	}
	return stats, nil
}

// RunPaperProtocol reproduces the full Section IV-D campaign: thresholds
// 2, 4 and 6, every x from 0 to Participants, repeats runs each. It
// returns per-threshold-and-x mean query counts plus the aggregate error
// statistics.
func (l *Lab) RunPaperProtocol(repeats int) (map[int]map[int]float64, Stats, error) {
	curves := make(map[int]map[int]float64)
	agg := newStats()
	for _, th := range []int{2, 4, 6} {
		curves[th] = make(map[int]float64)
		if b := l.cfg.Trace; b != nil {
			b.Begin(trace.KindSeries, "t="+strconv.Itoa(th))
		}
		for x := 0; x <= len(l.parts); x++ {
			if b := l.cfg.Trace; b != nil {
				sp := b.Begin(trace.KindPoint, "x="+strconv.Itoa(x))
				sp.SetAttr(trace.IntAttr("x", x), trace.IntAttr("runs", repeats))
			}
			st, err := l.RunBatch(th, x, repeats)
			if b := l.cfg.Trace; b != nil {
				b.End() // point, closed before the error check
			}
			if err != nil {
				if b := l.cfg.Trace; b != nil {
					b.End() // series
				}
				return nil, Stats{}, err
			}
			curves[th][x] = st.AvgQueries()
			agg.Merge(st)
		}
		if b := l.cfg.Trace; b != nil {
			b.End() // series
		}
	}
	return curves, agg, nil
}

// replay answers a Tap's polls from the initiator's poll record, in
// order: binary backcast responses at 3 RCD slots per group query (bind,
// poll, HACK).
type replay struct {
	log   []mote.QueryRecord
	polls int
}

func (r *replay) Query([]int) query.Response {
	r.polls++
	return r.response(r.polls - 1)
}

// response is what the initiator heard on poll i.
func (r *replay) response(i int) query.Response {
	if r.log[i].Empty {
		return query.Response{Kind: query.Empty}
	}
	return query.Response{Kind: query.Active}
}

func (r *replay) Traits() query.Traits { return query.Traits{Model: query.OnePlus} }

func (r *replay) Slots() int { return 3 * r.polls }
