package sketch

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Exemplar is one retained sample in a Reservoir: an identity key, the
// weight it was offered with, a short label for humans, and the value it
// carries (e.g. the session's slot cost).
type Exemplar struct {
	Key    uint64  // stable identity (hash of the span path / session label)
	Weight float64 // sampling weight; heavier items are likelier to be kept
	Value  float64
	Label  string
}

// Reservoir keeps a bounded, weighted sample of exemplars without
// consuming any randomness: each offered item's priority is
// u^(1/weight) with u derived from Hash64(key) (the A-ExpJ weighted
// reservoir rule with the uniform draw replaced by a hash), and the K
// highest-priority items survive. Because the priority is a pure
// function of (key, weight), identical runs retain identical exemplars
// regardless of worker count or offer order. Ties (possible only for
// duplicate keys) break toward the smaller key, then label.
type Reservoir struct {
	k     int
	items []weightedExemplar
}

type weightedExemplar struct {
	prio float64
	ex   Exemplar
}

// NewReservoir returns a reservoir retaining at most k exemplars; k <= 0
// panics.
func NewReservoir(k int) *Reservoir {
	if k <= 0 {
		panic(fmt.Sprintf("sketch: reservoir capacity %d", k))
	}
	return &Reservoir{k: k, items: make([]weightedExemplar, 0, k+1)}
}

// priority maps an exemplar to its deterministic sampling priority
// u^(1/w), u = (Hash64(key)+1)/2^64 in (0,1]. Non-positive weights get
// priority 0 (kept only if space remains over every weighted item).
func priority(ex Exemplar) float64 {
	if ex.Weight <= 0 {
		return 0
	}
	u := (float64(Hash64(ex.Key)) + 1) / math.Exp2(64)
	return math.Pow(u, 1/ex.Weight)
}

// Offer proposes an exemplar; it is retained iff its priority ranks in
// the top K of everything offered so far. Re-offering the same key
// replaces the previous entry (last value/label wins at equal priority).
func (r *Reservoir) Offer(ex Exemplar) {
	w := weightedExemplar{prio: priority(ex), ex: ex}
	for i := range r.items {
		if r.items[i].ex.Key == ex.Key && r.items[i].ex.Weight == ex.Weight {
			r.items[i] = w
			return
		}
	}
	r.items = append(r.items, w)
	r.sortItems()
	if len(r.items) > r.k {
		r.items = r.items[:r.k]
	}
}

// Exemplars returns the retained exemplars in descending priority order.
// The slice is freshly allocated; callers may keep it.
func (r *Reservoir) Exemplars() []Exemplar {
	out := make([]Exemplar, len(r.items))
	for i, it := range r.items {
		out[i] = it.ex
	}
	return out
}

func (r *Reservoir) sortItems() {
	sort.Slice(r.items, func(i, j int) bool {
		a, b := r.items[i], r.items[j]
		if a.prio != b.prio {
			return a.prio > b.prio
		}
		if a.ex.Key != b.ex.Key {
			return a.ex.Key < b.ex.Key
		}
		return a.ex.Label < b.ex.Label
	})
}

// AppendTo renders the reservoir deterministically in priority order.
func (r *Reservoir) AppendTo(b *strings.Builder) {
	fmt.Fprintf(b, "reservoir k=%d len=%d\n", r.k, len(r.items))
	for _, it := range r.items {
		fmt.Fprintf(b, "  exemplar key=%016x w=%g v=%g %s\n", it.ex.Key, it.ex.Weight, it.ex.Value, it.ex.Label)
	}
}

// String implements fmt.Stringer via AppendTo.
func (r *Reservoir) String() string {
	var b strings.Builder
	r.AppendTo(&b)
	return b.String()
}
