package faults

import "tcast/internal/rng"

// chains is the per-node churn and Gilbert–Elliott state shared by the
// Injector (stepped once per poll) and the Medium (once per slot). Both
// are two-state Markov chains, and every transition probability is
// precomputed as an rng.Threshold indexed by the state it leaves, so a
// step draws from a detached rng.Stream with one integer comparison per
// transition, no float conversion and no branch on the chain's state.
type chains struct {
	down []bool // churn state per node (true = crashed)
	bad  []bool // Gilbert–Elliott state per node (true = bad)

	// churn[0] is CrashProb (leave up), churn[1] RecoverProb (leave
	// down); link[0] is PGoodBad (leave good), link[1] PBadGood (leave
	// bad). miss holds the per-reply loss the Injector's bin filter
	// tests, indexed the same way: MissGood, MissBad.
	churn, link, miss [2]rng.Threshold

	// crashed and recovered list the last step's churn transitions. They
	// live here rather than in step's registers: transitions are rare,
	// and the draw loop needs every register it can get.
	crashed, recovered []int
}

// reset sizes the state for n nodes, all up and good, and builds the
// thresholds of the normalized cfg.
func (c *chains) reset(cfg Config, n int) {
	c.down = clearBools(c.down, n)
	c.bad = clearBools(c.bad, n)
	c.crashed, c.recovered = c.crashed[:0], c.recovered[:0]
	c.churn = [2]rng.Threshold{rng.NewThreshold(cfg.Churn.CrashProb), rng.NewThreshold(cfg.Churn.RecoverProb)}
	c.link = [2]rng.Threshold{rng.NewThreshold(cfg.Burst.PGoodBad), rng.NewThreshold(cfg.Burst.PBadGood)}
	c.miss = [2]rng.Threshold{rng.NewThreshold(cfg.Burst.MissGood), rng.NewThreshold(cfg.Burst.MissBad)}
}

func clearBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// step advances every node's churn chain and then its link chain by one
// step, drawing from r exactly the sequence a per-node Bernoulli loop
// draws: per node, CrashProb if up or RecoverProb if down, then PGoodBad
// if good or PBadGood if bad. A transition probability of 0 or 1 draws
// nothing — Hit skips the draw — so a chain with, say, PBadGood = 0
// consumes exactly the draws the Bernoulli loop does. The step's crashes
// and recoveries replace c.crashed and c.recovered.
func (c *chains) step(r *rng.Source) {
	c.crashed, c.recovered = c.crashed[:0], c.recovered[:0]
	if (c.churn[0] == rng.Threshold{} && c.link[0] == rng.Threshold{}) {
		// Every node starts up and good, and neither chain can leave
		// its start state: the per-node loop would draw nothing.
		return
	}
	down, bad := c.down, c.bad[:len(c.down)]
	st := r.Detach()
	var hit bool
	for id := range down {
		d := down[id]
		if hit, st = st.Hit(c.churn[b2i(d)]); hit {
			down[id] = !d
			if d {
				c.recovered = append(c.recovered, id)
			} else {
				c.crashed = append(c.crashed, id)
			}
		}
		b := bad[id]
		hit, st = st.Hit(c.link[b2i(b)])
		bad[id] = b != hit
	}
	r.Resume(st)
}

// b2i is a state's index into its [2]rng.Threshold; the compiler turns it
// into a zero-extension, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
