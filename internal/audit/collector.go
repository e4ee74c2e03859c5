package audit

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"tcast/internal/query"
)

// WrongDecision names one wrongly-decided session and its causal poll —
// the row format of the accuracy-breakdown table.
type WrongDecision struct {
	// Session labels the session (algorithm, parameters, trial index).
	Session string
	Outcome Outcome
	// CausalPoll is the index of the first unsound poll explaining the
	// error, -1 when unattributed.
	CausalPoll  int
	CausalClass Class
}

// Collector aggregates verdicts across a campaign. All methods are safe
// for concurrent use. The counters are commutative, so concurrent trials
// may fold verdicts in any arrival order; only the wrong-decision rows are
// order-sensitive. Serial callers append them directly with Add; parallel
// trial pools use AddAt with the trial index, then Flush once the batch
// drains, so the dump lists rows in trial order regardless of worker
// count. A batch that spans several points gives each point its own Fork,
// whose trials use AddAt with their index within the point; one Flush of
// the parent then splices the points in index order, each point's rows in
// trial order.
type Collector struct {
	// parent is set on a fork: the fork folds counters into, and locks,
	// the root collector; only its buffered rows are its own.
	parent     *Collector
	mu         sync.Mutex
	sessions   int
	polls      int
	voided     int
	outcomes   [NumOutcomes]int
	classes    [NumClasses]int
	invariants [NumInvariants]int
	wrong      []WrongDecision
	pending    map[int]WrongDecision
	forks      map[int]*Collector
}

// lock locks the collector that owns c's counters and dump — c itself, or
// the root above a fork — and returns it.
func (c *Collector) lock() *Collector {
	r := c
	for r.parent != nil {
		r = r.parent
	}
	r.mu.Lock()
	return r
}

// Add folds one session's verdict into the collector.
func (c *Collector) Add(session string, v Verdict) {
	r := c.lock()
	defer r.mu.Unlock()
	r.fold(v)
	if v.Outcome != OutcomeCorrect {
		r.wrong = append(r.wrong, WrongDecision{
			Session: session, Outcome: v.Outcome,
			CausalPoll: v.CausalPoll, CausalClass: v.CausalClass,
		})
	}
}

// AddAt folds the verdict of the trial at index i. Counters fold
// immediately; a wrong-decision row is buffered under i and only joins
// the dump when Flush splices the batch in index order. Indices must be
// unique within a batch (they are trial indices); reusing one panics.
func (c *Collector) AddAt(i int, session string, v Verdict) {
	r := c.lock()
	defer r.mu.Unlock()
	r.fold(v)
	if v.Outcome != OutcomeCorrect {
		if _, dup := c.pending[i]; dup {
			panic(fmt.Sprintf("audit: AddAt(%d) called twice in one batch", i))
		}
		if c.pending == nil {
			c.pending = make(map[int]WrongDecision)
		}
		c.pending[i] = WrongDecision{
			Session: session, Outcome: v.Outcome,
			CausalPoll: v.CausalPoll, CausalClass: v.CausalClass,
		}
	}
}

// fold accumulates the commutative counters; callers hold c.mu.
func (c *Collector) fold(v Verdict) {
	c.sessions++
	c.polls += v.Polls
	c.outcomes[v.Outcome]++
	for class, n := range v.Classes {
		c.classes[class] += n
	}
	for _, viol := range v.Violations {
		c.invariants[viol.Invariant]++
	}
}

// Fork returns a sub-collector for the batch entry at index i: its
// verdicts fold into c's counters at once, and its AddAt rows wait for
// c's next Flush, which splices them at position i. Fork is safe for
// concurrent use; forking the same index twice in one batch panics.
func (c *Collector) Fork(i int) *Collector {
	r := c.lock()
	defer r.mu.Unlock()
	if _, dup := c.forks[i]; dup {
		panic(fmt.Sprintf("audit: Fork(%d) called twice in one batch", i))
	}
	if c.forks == nil {
		c.forks = make(map[int]*Collector)
	}
	f := &Collector{parent: c}
	c.forks[i] = f
	return f
}

// Flush splices the rows buffered by AddAt, and those of every pending
// fork, into the dump in ascending index order. Call it after each trial
// batch drains — indices restart at zero every batch, so flushing late
// would collide. Flush the collector the batch forked from, not a fork.
func (c *Collector) Flush() {
	r := c.lock()
	defer r.mu.Unlock()
	c.splice(r)
}

// splice appends c's buffered rows and its forks' rows to r's dump in
// index order and clears them; callers hold r.mu.
func (c *Collector) splice(r *Collector) {
	idxs := make([]int, 0, len(c.pending)+len(c.forks))
	for i := range c.pending {
		idxs = append(idxs, i)
	}
	for i := range c.forks {
		idxs = append(idxs, i)
	}
	slices.Sort(idxs)
	for _, i := range slices.Compact(idxs) {
		if w, ok := c.pending[i]; ok {
			r.wrong = append(r.wrong, w)
		}
		if f := c.forks[i]; f != nil {
			f.splice(r)
		}
	}
	c.pending, c.forks = nil, nil
}

// Discard drops the rows buffered by AddAt, and every pending fork,
// without emitting them — the error path: when a batch fails, the
// buffered subset is scheduling-dependent, so keeping it would make the
// dump nondeterministic. Counters already folded stay.
func (c *Collector) Discard() {
	r := c.lock()
	defer r.mu.Unlock()
	c.pending, c.forks = nil, nil
}

// Void records a session that was started (its polls were graded live)
// but never reached a decision — the algorithm errored out — so there is
// no verdict to fold. Voided sessions keep the session accounting honest:
// sessions graded plus sessions voided equals sessions started.
func (c *Collector) Void(session string) {
	_ = session // voided sessions are counted, not listed
	r := c.lock()
	defer r.mu.Unlock()
	r.voided++
}

// AddDecision grades a session from its decision alone — the wire-only
// path (cmd/tcastmote's controller cannot see the remote initiator's
// polls). Wrong decisions are counted but necessarily unattributed.
func (c *Collector) AddDecision(session string, decision, truth bool) {
	r := c.lock()
	defer r.mu.Unlock()
	r.sessions++
	if decision == truth {
		r.outcomes[OutcomeCorrect]++
		return
	}
	r.outcomes[OutcomeWrongUnattributed]++
	r.wrong = append(r.wrong, WrongDecision{
		Session: session, Outcome: OutcomeWrongUnattributed, CausalPoll: -1,
	})
}

// Stats is a consistent snapshot of a Collector.
type Stats struct {
	Sessions int
	Polls    int
	// Voided counts sessions started but never decided (the algorithm
	// errored before a decision); they are excluded from Sessions and the
	// outcome counts.
	Voided     int
	Outcomes   [NumOutcomes]int
	Classes    [NumClasses]int
	Invariants [NumInvariants]int
	// Wrong lists every wrongly-decided session in insertion order.
	Wrong []WrongDecision
}

// Stats returns a snapshot (of the root, for a fork). Rows still
// buffered by AddAt or a pending fork are not included; Flush first to
// see a batch in progress.
func (c *Collector) Stats() Stats {
	r := c.lock()
	defer r.mu.Unlock()
	return Stats{
		Sessions:   r.sessions,
		Polls:      r.polls,
		Voided:     r.voided,
		Outcomes:   r.outcomes,
		Classes:    r.classes,
		Invariants: r.invariants,
		Wrong:      append([]WrongDecision(nil), r.wrong...),
	}
}

// Violations returns the total invariant breaches.
func (s Stats) Violations() int {
	total := 0
	for _, n := range s.Invariants {
		total += n
	}
	return total
}

// Accuracy returns the fraction of correctly-decided sessions (1 when no
// session was graded).
func (s Stats) Accuracy() float64 {
	if s.Sessions == 0 {
		return 1
	}
	return float64(s.Outcomes[OutcomeCorrect]) / float64(s.Sessions)
}

// maxWrongListed bounds the wrong-decision rows Summary prints; the full
// list stays available via Stats.
const maxWrongListed = 20

// Summary renders the campaign's accuracy breakdown as a text block — the
// audit counterpart of the metrics dump.
func (c *Collector) Summary() string {
	s := c.Stats()
	var b strings.Builder
	fmt.Fprintf(&b, "audit: %d sessions, %d polls, accuracy %.2f%%\n",
		s.Sessions, s.Polls, 100*s.Accuracy())
	if s.Voided > 0 {
		fmt.Fprintf(&b, "  voided: %d sessions errored before a decision\n", s.Voided)
	}
	fmt.Fprintf(&b, "  outcomes:")
	for o := Outcome(0); int(o) < NumOutcomes; o++ {
		fmt.Fprintf(&b, " %s=%d", o, s.Outcomes[o])
	}
	fmt.Fprintf(&b, "\n  poll classes:")
	for cl := Class(0); int(cl) < NumClasses; cl++ {
		fmt.Fprintf(&b, " %s=%d", cl, s.Classes[cl])
	}
	fmt.Fprintf(&b, "\n  invariant violations: %d", s.Violations())
	if s.Violations() > 0 {
		for i := Invariant(0); int(i) < NumInvariants; i++ {
			if s.Invariants[i] > 0 {
				fmt.Fprintf(&b, " %s=%d", i, s.Invariants[i])
			}
		}
	}
	b.WriteByte('\n')
	if len(s.Wrong) > 0 {
		fmt.Fprintf(&b, "  wrong decisions:\n")
		for i, w := range s.Wrong {
			if i == maxWrongListed {
				fmt.Fprintf(&b, "    ... and %d more\n", len(s.Wrong)-maxWrongListed)
				break
			}
			if w.CausalPoll >= 0 {
				fmt.Fprintf(&b, "    %s: %s, causal poll %d (%s)\n",
					w.Session, w.Outcome, w.CausalPoll, w.CausalClass)
			} else {
				fmt.Fprintf(&b, "    %s: %s, no causal poll\n", w.Session, w.Outcome)
			}
		}
	}
	return b.String()
}

// ReplayPoll is one recorded poll of a session graded after the fact.
type ReplayPoll struct {
	Bin  []int
	Resp query.Response
}

// GradeReplay grades a finished session from its poll record — the path
// for substrates that cannot host the middleware (the emulated mote
// testbed replays the initiator's poll log). It applies exactly the same
// classification and attribution as the live Auditor; it does not check
// Knowledge invariants or fill slot ledgers, because the replay does not
// carry the initiator's internal state.
func GradeReplay(t, trueX int, truth Truth, traits query.Traits, polls []ReplayPoll, decision bool) Verdict {
	v := Verdict{
		Decision:   decision,
		Truth:      trueX >= t,
		TrueX:      trueX,
		CausalPoll: -1,
		Polls:      len(polls),
	}
	recs := make([]PollRecord, len(polls))
	for i, p := range polls {
		k := 0
		for _, id := range p.Bin {
			if truth.IsPositive(id) {
				k++
			}
		}
		class := classify(p.Bin, p.Resp, traits, truth, k)
		recs[i] = PollRecord{BinSize: len(p.Bin), Kind: p.Resp.Kind, TruePositives: k, Class: class}
		v.Classes[class]++
	}
	v.Outcome, v.CausalPoll = attribute(decision, v.Truth, recs)
	if v.CausalPoll >= 0 {
		v.CausalClass = recs[v.CausalPoll].Class
	}
	return v
}
