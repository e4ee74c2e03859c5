package experiment

import (
	"fmt"

	"tcast/internal/audit"
	"tcast/internal/core"
	"tcast/internal/metrics"
	"tcast/internal/obs"
	"tcast/internal/pollcast"
	"tcast/internal/query"
	"tcast/internal/radio"
	"tcast/internal/rng"
	"tcast/internal/stats"
)

// tab-acc is the accuracy-breakdown campaign: 2tBins over the packet-level
// backcast substrate with increasing per-HACK-copy reply loss, every
// session graded by the ground-truth auditor. Backcast is the right
// primitive for loss analysis: a bin answers Empty exactly when every
// superposed HACK copy is dropped — the radio false negative behind the
// paper's Section IV-D error report — whereas pollcast's CCA energy
// sensing is loss-immune. Unlike the figure experiments — which run on
// effectively lossless substrates and treat a wrong decision as a harness
// error — this campaign *wants* wrong decisions, so it can attribute each
// one to the first causal unsound poll.
const (
	accN = 24 // participants
	accT = 6  // threshold
	accX = 8  // true positives: x > t, so loss-induced errors decide "no"
)

// accMissPcts are the swept per-reply loss probabilities, in percent.
var accMissPcts = []int{0, 2, 5, 10, 15, 20}

// accuracyPoint runs one miss-rate point's trials (at full worker
// parallelism; verdicts are inserted under their trial index so the
// dumps are order-deterministic) and returns the graded collector
// alongside the per-trial correctness values.
func accuracyPoint(missPct int, o Options, root *rng.Source) (*audit.Collector, []float64, error) {
	col := &audit.Collector{}
	miss := float64(missPct) / 100
	values, err := RunTrials(o.runs(200), o.workers(), root, func(trial int, r *rng.Source) (float64, error) {
		med := radio.NewMedium(radio.Config{MissProb: miss}, r.Split(1))
		parts := make([]*pollcast.Participant, accN)
		positive := make(map[int]bool, accX)
		for _, id := range r.Split(2).Sample(accN, accX) {
			positive[id] = true
		}
		for i := range parts {
			parts[i] = &pollcast.Participant{ID: i, Positive: positive[i]}
		}
		sess, err := pollcast.NewSession(med, accN, parts, pollcast.Backcast, query.OnePlus)
		if err != nil {
			return 0, err
		}
		var q query.Querier = metrics.Wrap(o.wrapFaults(sess, accN, r, nil), o.Metrics)
		aud, err := audit.New(q, audit.Config{N: accN, T: accT, Metrics: o.Metrics})
		if err != nil {
			return 0, err
		}
		q = aud
		label := fmt.Sprintf("2tBins/backcast/miss=%d%%/trial=%d", missPct, trial)
		if o.Obs != nil {
			q = obs.NewPublisher(q, o.Obs, label, trial)
			obs.PublishSessionStart(o.Obs, label, trial)
		}
		res, err := (core.TwoTBins{}).Run(q, accN, accT, r.Split(3))
		if err != nil {
			// Polls were graded live but the session never reached a
			// decision; void it so session accounting stays consistent.
			col.Void(label)
			if o.Audit != nil {
				o.Audit.Void(label)
			}
			return 0, err
		}
		metrics.FinishSession(q)
		v := aud.Finish(res.Decision)
		col.AddAt(trial, label, v)
		if o.Audit != nil {
			o.Audit.AddAt(trial, label, v)
		}
		if o.Obs != nil {
			obs.PublishChainEvents(o.Obs, label, trial, q)
			obs.PublishVerdict(o.Obs, label, trial, v, obs.ChainSlots(q, v.Polls), q)
		}
		if v.Correct() {
			return 1, nil
		}
		return 0, nil
	})
	if err != nil {
		if o.Audit != nil {
			o.Audit.Discard()
		}
		return nil, nil, err
	}
	col.Flush()
	if o.Audit != nil {
		o.Audit.Flush()
	}
	return col, values, nil
}

func init() {
	register(Experiment{
		ID:    "tab-acc",
		Title: "Auditing accuracy: 2tBins over lossy backcast, wrong decisions attributed to causal polls",
		Run: func(o Options) (*stats.Table, error) {
			root := rng.New(o.Seed)
			tab := &stats.Table{
				Title: fmt.Sprintf("audited backcast campaign: N=%d, t=%d, x=%d (truth: yes)",
					accN, accT, accX),
				XLabel: "reply loss %", YLabel: "rate / count",
			}
			accuracy := &stats.Series{Name: "decision accuracy"}
			wrongLoss := &stats.Series{Name: "wrong decisions (attributed to loss)"}
			wrongAlg := &stats.Series{Name: "wrong decisions (algorithm)"}
			fnPolls := &stats.Series{Name: "false-negative polls per session"}
			violations := &stats.Series{Name: "invariant violations"}
			for _, missPct := range accMissPcts {
				col, values, err := accuracyPoint(missPct, o, root.Split(uint64(missPct)))
				if err != nil {
					return nil, fmt.Errorf("experiment: tab-acc at miss=%d%%: %w", missPct, err)
				}
				var acc stats.Running
				for _, v := range values {
					acc.Observe(v)
				}
				st := col.Stats()
				x := float64(missPct)
				accuracy.Append(stats.Point{X: x, Y: acc.Mean(), Err: acc.CI95(), N: acc.N()})
				wrongLoss.Append(stats.Point{X: x, Y: float64(st.Outcomes[audit.OutcomeWrongLoss]), N: st.Sessions})
				wrongAlg.Append(stats.Point{X: x, Y: float64(st.Outcomes[audit.OutcomeWrongAlgorithm]), N: st.Sessions})
				fnPolls.Append(stats.Point{X: x, Y: float64(st.Classes[audit.ClassFalseNegative]) / float64(st.Sessions), N: st.Sessions})
				violations.Append(stats.Point{X: x, Y: float64(st.Violations()), N: st.Sessions})
			}
			tab.Add(accuracy)
			tab.Add(wrongLoss)
			tab.Add(wrongAlg)
			tab.Add(fnPolls)
			tab.Add(violations)
			return tab, nil
		},
	})
}
