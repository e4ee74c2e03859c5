package experiment

import (
	"fmt"
	"sync/atomic"

	"tcast/internal/audit"
	"tcast/internal/core"
	"tcast/internal/faults"
	"tcast/internal/query"
	"tcast/internal/rng"
	"tcast/internal/session"
	"tcast/internal/stats"
	"tcast/internal/trace"
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
	backcastN = 24 // participants
	backcastT = 6  // threshold
	backcastX = 8  // true positives: x > t, so loss-induced errors decide "no"
)

// accMissPcts are the swept per-reply loss probabilities, in percent.
var accMissPcts = []int{0, 2, 5, 10, 15, 20}

// backcastPoint runs one point of audited 2tBins sessions over the
// backcast substrate (at full worker parallelism) and returns the point's
// collector, the per-trial correctness values (1 correct, 0 wrong) and,
// with attribute set, how many wrong decisions were joined to an injected
// fault (their labels name it). Verdicts fold into the point's collector
// and, when set, o.Audit, both keyed by trial index so the dumps are
// order-deterministic. With o.Trace set the point is a span named prefix,
// and each session records into a trial fork grafted under it, as in
// sweep.
func backcastPoint(prefix string, miss float64, fcfg *faults.Config, retry query.RetryPolicy, attribute bool, o Options, root *rng.Source) (*audit.Collector, []float64, int, error) {
	col := &audit.Collector{}
	runs := o.runs(200)
	if b := o.Trace; b != nil {
		b.Begin(trace.KindPoint, prefix).SetAttr(trace.IntAttr("runs", runs))
	}
	var attributed atomic.Int64
	values, err := RunTrials(runs, o.workers(), root, func(trial int, r *rng.Source) (float64, error) {
		s := sessions.Get().(*session.Session)
		defer sessions.Put(s)
		sc := trials.Get().(*trialScratch)
		defer trials.Put(sc)
		sc.miss = miss
		err := s.Reset(session.Spec{
			N: backcastN, T: backcastT, X: backcastX, Algorithm: core.TwoTBins{},
			Label: fmt.Sprintf("%s/trial=%d", prefix, trial), Trial: trial,
			Substrate: sc.substrate, Faults: fcfg, Retry: retry,
			Metrics: o.Metrics, Audit: col, Attribute: attribute, Obs: o.Obs,
			Trace: o.Trace, TraceSample: o.TraceSample,
		}, r)
		if err != nil {
			return 0, err
		}
		_, err = s.Run()
		s.Record(o.Audit)
		if err != nil {
			return 0, err
		}
		s.Publish()
		if s.Attributed() {
			attributed.Add(1)
		}
		if v, _ := s.Verdict(); v.Correct() {
			return 1, nil
		}
		return 0, nil
	})
	if b := o.Trace; b != nil {
		if err == nil {
			b.Graft()
		} else {
			b.DropForks()
		}
		b.End()
	}
	if err != nil {
		if o.Audit != nil {
			o.Audit.Discard()
		}
		return nil, nil, 0, err
	}
	col.Flush()
	if o.Audit != nil {
		o.Audit.Flush()
	}
	return col, values, int(attributed.Load()), nil
}

func init() {
	register(Experiment{
		ID:    "tab-acc",
		Title: "Auditing accuracy: 2tBins over lossy backcast, wrong decisions attributed to causal polls",
		Run: func(o Options) (*stats.Table, error) {
			root := rng.New(o.Seed)
			tab := &stats.Table{
				Title: fmt.Sprintf("audited backcast campaign: N=%d, t=%d, x=%d (truth: yes)",
					backcastN, backcastT, backcastX),
				XLabel: "reply loss %", YLabel: "rate / count",
			}
			accuracy := &stats.Series{Name: "decision accuracy"}
			wrongLoss := &stats.Series{Name: "wrong decisions (attributed to loss)"}
			wrongAlg := &stats.Series{Name: "wrong decisions (algorithm)"}
			fnPolls := &stats.Series{Name: "false-negative polls per session"}
			violations := &stats.Series{Name: "invariant violations"}
			for _, missPct := range accMissPcts {
				prefix := fmt.Sprintf("2tBins/backcast/miss=%d%%", missPct)
				col, values, _, err := backcastPoint(prefix, float64(missPct)/100, o.Faults, o.Retry, false, o, root.Split(uint64(missPct)))
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
