package query

// Observer watches a session's poll stream without touching it. The
// observability layers (metrics, audit, trace, obs) are observers.
type Observer interface {
	// OnPoll sees one answered poll: its index from 0 at the Tap's Reset,
	// the bin (borrowed, as in Querier.Query) and the response.
	OnPoll(poll int, bin []int, resp Response)
	// OnRound sees the algorithms' round boundary.
	OnRound(round int)
}

// Tap is the read-only middleware the observers ride on. It forwards
// every poll and round boundary untouched, calls its observers in order
// once the layers below have answered, and keeps the session totals once
// for all of them. It consumes no randomness, takes no lock and allocates
// nothing per poll. Not safe for concurrent use; each session has its own.
type Tap struct {
	q     Querier
	obs   []Observer
	kinds KindCounts
	nodes int
}

// NewTap returns a Tap over q calling obs in order.
func NewTap(q Querier, obs ...Observer) *Tap {
	t := new(Tap)
	t.Reset(q, obs...)
	return t
}

// Reset re-targets t at q with the observers obs and zero totals, reusing
// its observer slice.
func (t *Tap) Reset(q Querier, obs ...Observer) {
	t.q = q
	t.obs = append(t.obs[:0], obs...)
	t.kinds, t.nodes = KindCounts{}, 0
}

// Query implements Querier: forward the poll, count it, then show it to
// every observer.
func (t *Tap) Query(bin []int) Response {
	resp := t.q.Query(bin)
	poll := t.kinds.Total()
	t.kinds.Observe(resp.Kind)
	t.nodes += len(bin)
	for _, o := range t.obs {
		o.OnPoll(poll, bin, resp)
	}
	return resp
}

// Traits implements Querier.
func (t *Tap) Traits() Traits { return t.q.Traits() }

// Unwrap implements Wrapper.
func (t *Tap) Unwrap() Querier { return t.q }

// TraceRound shows the algorithms' round boundary to every observer, then
// forwards it down the chain.
func (t *Tap) TraceRound(round int) {
	for _, o := range t.obs {
		o.OnRound(round)
	}
	if rt, ok := t.q.(interface{ TraceRound(round int) }); ok {
		rt.TraceRound(round)
	}
}

// Polls returns the polls answered since Reset.
func (t *Tap) Polls() int { return t.kinds.Total() }

// Nodes returns the node-poll pairs since Reset (the sum of the bins'
// sizes), the paper's listener-energy proxy.
func (t *Tap) Nodes() int { return t.nodes }

func (t *Tap) tap() *Tap { return t }

// Layers calls visit on each layer of q's chain, outermost first, until
// visit returns false: the observers of a Tap (or of a querier embedding
// one, as audit.Auditor does) in call order, with that Tap, and every
// other querier itself, with a nil Tap.
func Layers(q Querier, visit func(layer any, t *Tap) bool) {
	Walk(q, func(l Querier) bool {
		tp, ok := l.(interface{ tap() *Tap })
		if !ok {
			return visit(l, nil)
		}
		t := tp.tap()
		for _, o := range t.obs {
			if !visit(o, t) {
				return false
			}
		}
		return true
	})
}

// SlotMeter returns the outermost layer in q's chain that meters its own
// virtual-time slot cost, or nil when polls cost one slot each. The span
// recorder, the verdict events and the serving medium all price polls by
// it; Retry binds the deepest meter instead, for the reason its doc gives.
func SlotMeter(q Querier) (meter interface{ Slots() int }) {
	Walk(q, func(l Querier) bool {
		meter, _ = l.(interface{ Slots() int })
		return meter == nil
	})
	return meter
}
