package energy_test

import (
	"testing"
	"time"

	"tcast/internal/audit"
	"tcast/internal/core"
	"tcast/internal/energy"
	"tcast/internal/fastsim"
	"tcast/internal/query"
	"tcast/internal/rng"
	"tcast/internal/timing"
)

// These tests price audited sessions, so they live in an external package
// that can import both audit and energy.

// binLog records a copy of every polled bin. It sits below the auditor
// and unwraps to the channel, so the auditor still finds its ground truth.
type binLog struct {
	query.Querier
	bins [][]int
}

func (l *binLog) Query(bin []int) query.Response {
	l.bins = append(l.bins, append([]int(nil), bin...))
	return l.Querier.Query(bin)
}

func (l *binLog) Unwrap() query.Querier { return l.Querier }

// auditedSession runs one 2tBins session through an auditor over a
// recorded channel and returns the verdict, the result, the polled bins
// and the channel.
func auditedSession(t *testing.T, n, th, x int, cfg fastsim.Config, seed uint64) (audit.Verdict, core.Result, [][]int, *fastsim.Channel) {
	t.Helper()
	r := rng.New(seed)
	ch, _ := fastsim.RandomPositives(n, x, cfg, r.Split(1))
	log := &binLog{Querier: ch}
	a, err := audit.New(log, audit.Config{N: n, T: th})
	if err != nil {
		t.Fatal(err)
	}
	res, err := (core.TwoTBins{}).Run(a, n, th, r.Split(2))
	if err != nil {
		t.Fatal(err)
	}
	return a.Finish(res.Decision), res, log.bins, ch
}

// pricedSession prices an audited session from its node ledgers.
func pricedSession(t *testing.T, n, th, x int, seed uint64) (energy.Report, *fastsim.Channel) {
	t.Helper()
	v, res, _, ch := auditedSession(t, n, th, x, fastsim.DefaultConfig(), seed)
	return energy.TcastSession(energy.CC2420(), timing.DefaultCosts(n), res.Rounds, v.Polls, n, v.Nodes.At), ch
}

// oracleTcastSession is the per-poll pricing TcastSession replaced: it
// walks the polled bins and charges each member a poll reception, plus a
// HACK transmission when it is positive.
func oracleTcastSession(m energy.Model, c timing.Costs, rounds int, bins [][]int, n int, isPositive func(id int) bool) energy.Report {
	mj := func(d time.Duration, mA float64) float64 { return m.Voltage * mA * d.Seconds() }
	pollAir := timing.FrameAirtime(3)
	ackAir := timing.AckAirtime()
	sessionTime := c.TcastLatency(len(bins), rounds)

	rep := energy.Report{PerNode: make([]float64, n)}
	txTime := time.Duration(rounds)*c.RoundBind + time.Duration(len(bins))*pollAir
	rxTime := time.Duration(len(bins)) * ackAir
	idleTime := sessionTime - txTime - rxTime
	if idleTime < 0 {
		idleTime = 0
	}
	rep.Initiator = mj(txTime, m.TxmA) + mj(rxTime, m.RxmA) + mj(idleTime, m.IdlemA)

	bindRx := time.Duration(rounds) * c.RoundBind
	rx := make([]time.Duration, n)
	tx := make([]time.Duration, n)
	for _, bin := range bins {
		for _, id := range bin {
			if id < 0 || id >= n {
				continue
			}
			rx[id] += pollAir
			if isPositive(id) {
				tx[id] += ackAir
			}
		}
	}
	for id := 0; id < n; id++ {
		active := bindRx + rx[id] + tx[id]
		idle := sessionTime - active
		if idle < 0 {
			idle = 0
		}
		rep.PerNode[id] = mj(bindRx+rx[id], m.RxmA) + mj(tx[id], m.TxmA) + mj(idle, m.IdlemA)
	}
	return rep
}

// TestTcastSessionMatchesPollOracle: pricing a session from the audit
// ledger gives exactly the bill the per-poll walk over its bins gives, on
// lossless and lossy channels alike.
func TestTcastSessionMatchesPollOracle(t *testing.T) {
	lossy := fastsim.DefaultConfig()
	lossy.MissProb = 0.2
	channels := map[string]fastsim.Config{
		"1+":    fastsim.DefaultConfig(),
		"2+":    fastsim.TwoPlusConfig(),
		"lossy": lossy,
	}
	const n, th = 128, 16
	m := energy.CC2420()
	c := timing.DefaultCosts(n)
	for name, cfg := range channels {
		for _, x := range []int{0, 1, 8, 16, 40, 128} {
			for seed := uint64(1); seed <= 4; seed++ {
				v, res, bins, ch := auditedSession(t, n, th, x, cfg, seed)
				if v.Polls != len(bins) || v.Polls != res.Queries {
					t.Fatalf("%s x=%d seed=%d: %d graded polls, %d bins, %d queries", name, x, seed, v.Polls, len(bins), res.Queries)
				}
				got := energy.TcastSession(m, c, res.Rounds, v.Polls, n, v.Nodes.At)
				want := oracleTcastSession(m, c, res.Rounds, bins, n, ch.IsPositive)
				if got.Initiator != want.Initiator {
					t.Fatalf("%s x=%d seed=%d: initiator %v, oracle %v", name, x, seed, got.Initiator, want.Initiator)
				}
				for id := range want.PerNode {
					if got.PerNode[id] != want.PerNode[id] {
						t.Fatalf("%s x=%d seed=%d: node %d %v, oracle %v", name, x, seed, id, got.PerNode[id], want.PerNode[id])
					}
				}
			}
		}
	}
}

func TestTcastSessionAccounting(t *testing.T) {
	const n, th, x = 32, 8, 12
	rep, ch := pricedSession(t, n, th, x, 1)
	if len(rep.PerNode) != n {
		t.Fatalf("PerNode length %d", len(rep.PerNode))
	}
	if rep.Initiator <= 0 {
		t.Fatal("initiator energy not positive")
	}
	for id, e := range rep.PerNode {
		if e <= 0 {
			t.Fatalf("node %d energy %v", id, e)
		}
	}
	// Positives transmit HACKs, so on average they outspend negatives.
	var posSum, negSum float64
	var posN, negN int
	for id, e := range rep.PerNode {
		if ch.IsPositive(id) {
			posSum += e
			posN++
		} else {
			negSum += e
			negN++
		}
	}
	if posSum/float64(posN) <= negSum/float64(negN) {
		t.Fatal("positives did not outspend negatives")
	}
	// The initiator transmits every poll: it must outspend any single
	// participant.
	if rep.Initiator <= rep.MaxNode() {
		t.Fatalf("initiator %v not above max node %v", rep.Initiator, rep.MaxNode())
	}
}

func TestSchemeComparisonAtModerateX(t *testing.T) {
	// The qualitative energy story: per-participant, sequential is the
	// floor, tcast is close, CSMA's mandatory listening is the ceiling.
	const n, th, x = 64, 16, 32
	tcastRep, ch := pricedSession(t, n, th, x, 2)
	m := energy.CC2420()
	c := timing.DefaultCosts(n)

	positives := make([]int, 0, x)
	for id := 0; id < n; id++ {
		if ch.IsPositive(id) {
			positives = append(positives, id)
		}
	}
	// Plausible CSMA cost for x=32, t=16 (from the Fig 1 data: ~88
	// slots, 16 deliveries).
	csmaRep := energy.CSMASession(m, c, 88, 16, n, positives)
	order := rng.New(3).Perm(n)
	seqRep := energy.SequentialSession(m, c, 40, n, ch.IsPositive, order)

	if !(seqRep.MeanNode() < tcastRep.MeanNode() && tcastRep.MeanNode() < csmaRep.MeanNode()) {
		t.Fatalf("energy ordering violated: seq=%v tcast=%v csma=%v",
			seqRep.MeanNode(), tcastRep.MeanNode(), csmaRep.MeanNode())
	}
}
