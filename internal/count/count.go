// Package count extends the threshold primitive with the two neighboring
// questions the paper's framework supports:
//
//   - Identify: which nodes are positive? Classic adaptive group testing
//     (binary splitting) over the same RCD group polls, costing
//     O(x log(n/x)) queries — the regime where the companion theory [4]
//     places identification. Applications (Section II-C) such as intruder
//     classification need the identities once the threshold fires.
//   - Estimate: approximately how many nodes are positive? A
//     Flajolet-Martin-style geometric sampling cascade over probabilistic
//     bins, answering with O(log n) polls — the data-streams machinery
//     Section VI builds on, applied to cardinality.
package count

import (
	"fmt"
	"math"
	"slices"

	"tcast/internal/binning"
	"tcast/internal/query"
	"tcast/internal/rng"
)

// Scratch is Identify's reusable state: the identity bin it splits, the
// stack of pending sub-bins and the positives found. Pooled trials keep
// one per worker, so a warm call allocates nothing; a nil *Scratch gives
// the call fresh buffers. Not safe for concurrent use.
type Scratch struct {
	all       []int
	stack     [][]int
	positives []int
}

// Identify returns the exact set of positive nodes among {0..n-1} using
// adaptive binary splitting, plus the number of group polls spent. Under
// the 2+ model, decoded replies short-circuit part of the recursion.
// Results are sorted. The cost is at most 2x·(log2(n)+1)+1 polls for x
// positives. The positives are sc's storage, valid until sc's next call.
func Identify(q query.Querier, n int, sc *Scratch) (positives []int, queries int, err error) {
	if n < 0 {
		return nil, 0, fmt.Errorf("count: negative population %d", n)
	}
	if n == 0 {
		return nil, 0, nil
	}
	if sc == nil {
		sc = new(Scratch)
	}
	traits := q.Traits()
	all := sc.all[:0]
	for i := 0; i < n; i++ {
		all = append(all, i)
	}
	sc.all = all
	positives = sc.positives[:0]
	// Depth-first over sub-bins; each element is a candidate set known
	// to possibly contain positives. The pending sub-bins are disjoint
	// runs of all, so a decoded bin is filtered in place.
	stack := append(sc.stack[:0], all)
	defer func() { sc.stack, sc.positives = stack[:0], positives[:0] }()
	const maxPolls = 1 << 24 // livelock guard; legal sessions stay far below
	for len(stack) > 0 {
		bin := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if len(bin) == 0 {
			continue
		}
		resp := q.Query(bin)
		queries++
		if queries > maxPolls {
			return nil, queries, fmt.Errorf("count: poll budget exhausted")
		}
		switch resp.Kind {
		case query.Empty:
			// Whole sub-bin negative.
		case query.Decoded:
			positives = append(positives, resp.DecodedID)
			if traits.CaptureEffect {
				// Others may still be positive: re-test the remainder.
				if rest := without(bin, resp.DecodedID); len(rest) > 0 {
					stack = append(stack, rest)
				}
			}
			// Without capture effect a decode proves a singleton; the
			// remainder is negative and needs no further polls.
		default: // Active or Collision: at least one positive inside.
			if len(bin) == 1 {
				positives = append(positives, bin[0])
				continue
			}
			mid := len(bin) / 2
			stack = append(stack, bin[:mid], bin[mid:])
		}
	}
	slices.Sort(positives)
	return positives, queries, nil
}

// without drops every id from bin in place and returns the remainder, a
// prefix of bin in its original order.
func without(bin []int, id int) []int {
	out := bin[:0]
	for _, v := range bin {
		if v != id {
			out = append(out, v)
		}
	}
	return out
}

// EstimateOptions tunes the cardinality estimator.
type EstimateOptions struct {
	// Repeats is the number of probes per sampling level; more repeats
	// tighten the estimate. Zero means 32.
	Repeats int
}

// Estimate approximates the number of positive nodes among members using
// geometric sampling: at level j each node joins a probe with probability
// 2^-j, so the expected empty-probe fraction is exp(-x/2^j). The
// estimator walks levels until most probes come up empty and inverts the
// empty fraction at that level. It returns the estimate and the number of
// polls spent (O(Repeats·log n)). Every probe is drawn into buf's
// storage, so a caller that passes cap(buf) >= len(members) makes the
// call allocation-free; a smaller buf costs one new probe buffer.
//
// A zero estimate is exact: level 0 probes include every member, so an
// all-empty level-0 round proves x = 0 on an ideal channel.
func Estimate(q query.Querier, members []int, opts EstimateOptions, r *rng.Source, buf []int) (xHat float64, queries int) {
	repeats := opts.Repeats
	if repeats <= 0 {
		repeats = 32
	}
	n := len(members)
	if n == 0 {
		return 0, 0
	}
	maxLevel := 1
	for (1 << maxLevel) < n {
		maxLevel++
	}
	// One probe buffer serves every poll of the call: a Querier borrows
	// its bin only for the duration of Query.
	if cap(buf) < n {
		buf = make([]int, 0, n)
	}
	for j := 0; j <= maxLevel; j++ {
		p := math.Pow(2, -float64(j))
		empty := 0
		for i := 0; i < repeats; i++ {
			probe := members
			if j > 0 {
				buf = binning.AppendProbabilisticBin(buf[:0], members, p, r)
				probe = buf
			}
			queries++
			if q.Query(probe).Kind == query.Empty {
				empty++
			}
		}
		if j == 0 && empty == repeats {
			return 0, queries
		}
		// Invert exp(-x·p) = empty/repeats once at least half the
		// probes are empty (the regime where the inversion is stable),
		// or at the last level regardless.
		if empty*2 >= repeats || j == maxLevel {
			frac := float64(empty) / float64(repeats)
			// Clamp away from 0 and 1 to keep the logarithm finite.
			lo, hi := 0.5/float64(repeats), 1-0.5/float64(repeats)
			if frac < lo {
				frac = lo
			}
			if frac > hi {
				frac = hi
			}
			return -math.Log(frac) / p, queries
		}
	}
	return 0, queries // unreachable
}
