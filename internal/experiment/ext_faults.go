package experiment

import (
	"fmt"

	"tcast/internal/baseline"
	"tcast/internal/faults"
	"tcast/internal/query"
	"tcast/internal/rng"
	"tcast/internal/stats"
)

// ext-faults is the robustness campaign the testbed section motivates:
// 2tBins over a *lossless* packet-level backcast medium degraded only by
// the injected fault processes, swept over burst length with and without
// churn and with the initiator retry policy, against CSMA under the same
// bursty channel. Because the medium itself is perfect, every reply loss
// is an injected fault — so every wrong decision's causal poll (found by
// the auditor) joins an entry in the injector's fault-event log, and the
// audit dump names the fault that caused each error. The campaign shares
// tab-acc's backcast substrate and population.
const extGuard = 48 // CSMA guard slots (realistic termination; Drop needs it)

// extBurstLens sweeps the mean bad-state dwell in polls (0 = no bursts);
// extBadFrac holds the stationary bad fraction constant, so longer bursts
// at equal average loss isolate the effect of loss clustering.
var extBurstLens = []int{0, 2, 4, 8, 16, 32}

const extBadFrac = 0.2

// extBurst builds the Gilbert–Elliott config for one swept burst length.
func extBurst(burstLen int) faults.BurstConfig {
	if burstLen <= 0 {
		return faults.BurstConfig{}
	}
	pbg := 1 / float64(burstLen)
	return faults.BurstConfig{
		PGoodBad: extBadFrac / (1 - extBadFrac) * pbg,
		PBadGood: pbg,
		MissBad:  1,
	}
}

// extChurn is the churn process of the churn series: 1% crash per poll,
// 10% recovery.
var extChurn = faults.ChurnConfig{CrashProb: 0.01, RecoverProb: 0.1}

// extRetry is the initiator policy of the retry series.
var extRetry = query.RetryPolicy{MaxRetries: 2, Backoff: 1}

// csmaFaultedPoint runs the CSMA comparison under the same bursty channel
// via the baseline's Drop hook (one Gilbert–Elliott link clocked per
// reply slot, the same clock the injector steps per poll).
func csmaFaultedPoint(burst faults.BurstConfig, o Options, root *rng.Source) ([]float64, error) {
	return RunTrials(o.runs(200), o.workers(), root, func(trial int, r *rng.Source) (float64, error) {
		sc := trials.Get().(*trialScratch)
		defer trials.Put(sc)
		sc.link.Reset(burst, sc.split(r, 3))
		c := baseline.CSMA{GuardSlots: extGuard}
		if burst.Active() {
			c.Drop = sc.drop
		}
		res := c.Run(backcastN, backcastT, backcastX, sc.split(r, 2), &sc.base)
		if res.Decision == (backcastX >= backcastT) {
			return 1, nil
		}
		return 0, nil
	})
}

func init() {
	register(Experiment{
		ID:    "ext-faults",
		Title: "Fault injection: 2tBins/backcast vs CSMA under bursty loss, churn and retries, errors fault-attributed",
		Run: func(o Options) (*stats.Table, error) {
			root := rng.New(o.Seed)
			tab := &stats.Table{
				Title: fmt.Sprintf("faulted backcast campaign: N=%d, t=%d, x=%d (truth: yes), bad fraction %.0f%%",
					backcastN, backcastT, backcastX, 100*extBadFrac),
				XLabel: "mean burst length (polls)", YLabel: "rate / count",
			}
			plain := &stats.Series{Name: "backcast accuracy"}
			churned := &stats.Series{Name: fmt.Sprintf("backcast accuracy (churn %g)", extChurn.CrashProb)}
			retried := &stats.Series{Name: fmt.Sprintf("backcast accuracy (retry x%d)", extRetry.MaxRetries)}
			csma := &stats.Series{Name: fmt.Sprintf("CSMA accuracy (guard %d)", extGuard)}
			attr := &stats.Series{Name: "wrong decisions attributed to faults"}
			for _, burstLen := range extBurstLens {
				ptRoot := root.Split(uint64(burstLen))
				burst := extBurst(burstLen)
				x := float64(burstLen)
				attributed := 0
				for vi, variant := range []struct {
					s     *stats.Series
					cfg   faults.Config
					retry query.RetryPolicy
					tag   string
				}{
					{plain, faults.Config{Burst: burst}, query.RetryPolicy{}, "plain"},
					{churned, faults.Config{Burst: burst, Churn: extChurn}, query.RetryPolicy{}, "churn"},
					{retried, faults.Config{Burst: burst}, extRetry, "retry"},
				} {
					// The medium itself is lossless; every loss is an
					// injected fault, which each wrong decision's label names.
					prefix := fmt.Sprintf("2tBins/backcast/%s/burst=%d", variant.tag, burstLen)
					_, values, n, err := backcastPoint(prefix, 0, &variant.cfg, variant.retry, true, o, ptRoot.Split(uint64(vi+1)))
					if err != nil {
						return nil, fmt.Errorf("experiment: ext-faults %s at burst=%d: %w", variant.tag, burstLen, err)
					}
					attributed += n
					var acc stats.Running
					for _, v := range values {
						acc.Observe(v)
					}
					variant.s.Append(stats.Point{X: x, Y: acc.Mean(), Err: acc.CI95(), N: acc.N()})
				}
				values, err := csmaFaultedPoint(burst, o, ptRoot.Split(99))
				if err != nil {
					return nil, fmt.Errorf("experiment: ext-faults csma at burst=%d: %w", burstLen, err)
				}
				var acc stats.Running
				for _, v := range values {
					acc.Observe(v)
				}
				csma.Append(stats.Point{X: x, Y: acc.Mean(), Err: acc.CI95(), N: acc.N()})
				attr.Append(stats.Point{X: x, Y: float64(attributed), N: 3 * o.runs(200)})
			}
			tab.Add(plain)
			tab.Add(churned)
			tab.Add(retried)
			tab.Add(csma)
			tab.Add(attr)
			return tab, nil
		},
	})
}
