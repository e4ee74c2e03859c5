// Package kplus implements the generalized collision model of the
// companion theoretical work (Aspnes, Blais, Demirbas, O'Donnell, Rudra,
// Uurtamo — "k+ decision trees", Algosensors 2010), of which the paper's
// 1+ and 2+ radios are the first two instances: a k+ query of a bin
// returns the exact number of positive repliers when it is below k, and
// only "at least k" otherwise.
//
// The key algorithmic consequence: a bin answering c < k is *resolved* —
// it contributes exactly c to the count forever and its nodes need never
// be polled again — while saturated bins (≥ k) are split and re-queried.
// Threshold querying falls out of this split-until-resolved loop, and
// stronger radios (larger k) resolve more per query.
package kplus

import (
	"fmt"

	"tcast/internal/idset"
	"tcast/internal/rng"
)

// Response is what a k+ query reveals about a bin.
type Response struct {
	// Count is the number of positive repliers if Saturated is false;
	// otherwise the radio only knows the count is at least K.
	Count int
	// Saturated reports that the bin held K or more positives.
	Saturated bool
}

// Querier answers k+ group queries.
type Querier interface {
	// Query polls a bin.
	Query(bin []int) Response
	// K returns the model's resolution: the largest count the radio
	// distinguishes exactly is K-1.
	K() int
}

// Channel is the abstract k+ substrate over a known ground truth. It
// implements Querier. The zero value is ready for Reset, which re-targets
// it in place, so a pooled channel serves trial after trial without
// allocating.
type Channel struct {
	positive idset.Dense
	k        int
}

// Reset re-targets the channel at participants {0..n-1}, of which exactly
// the listed nodes are positive, under a radio that resolves counts below
// k. It panics if k < 1 or an ID is outside [0, n).
func (c *Channel) Reset(k, n int, positives []int) {
	if k < 1 {
		panic("kplus: k must be at least 1")
	}
	c.positive.Reset(n)
	for _, id := range positives {
		c.positive.Add(id)
	}
	c.k = k
}

// K implements Querier.
func (c *Channel) K() int { return c.k }

// Query implements Querier.
func (c *Channel) Query(bin []int) Response {
	count := 0
	for _, id := range bin {
		if c.positive.Contains(id) {
			count++
			if count >= c.k {
				return Response{Count: c.k, Saturated: true}
			}
		}
	}
	return Response{Count: count}
}

// Result reports a k+ session.
type Result struct {
	// Decision answers the threshold question.
	Decision bool
	// Queries is the number of k+ group queries issued.
	Queries int
}

// Scratch is Threshold's reusable state: the random split order and the
// stack of pending bins. Pooled trials keep one per worker, so a warm
// session allocates nothing; a nil *Scratch gives the session fresh
// buffers. Not safe for concurrent use.
type Scratch struct {
	order   []int
	pending [][]int
}

// Threshold answers "x >= t?" by splitting saturated bins: resolved bins
// (count < k) retire their nodes and bank their exact counts; saturated
// bins split in half. The session decides as soon as the banked count
// reaches t, or when even k-saturating every outstanding bin cannot reach
// it. The split order is drawn into sc.
func Threshold(q Querier, n, t int, r *rng.Source, sc *Scratch) (Result, error) {
	if n < 0 || t < 0 {
		return Result{}, fmt.Errorf("kplus: negative n=%d or t=%d", n, t)
	}
	if t == 0 {
		return Result{Decision: true}, nil
	}
	if t > n {
		return Result{}, nil
	}
	if sc == nil {
		sc = new(Scratch)
	}
	k := q.K()
	sc.order = r.PermInto(sc.order, n) // random split order, matching the paper's random binning
	confirmed := 0
	var res Result
	// pending holds bins that may still contain unknown positives; it is
	// handed back to sc however the session ends.
	pending := append(sc.pending[:0], sc.order)
	defer func() { sc.pending = pending[:0] }()
	pendingNodes := n
	for len(pending) > 0 {
		// Upper bound: banked + everything pending being positive.
		if confirmed+pendingNodes < t {
			return Result{Queries: res.Queries}, nil
		}
		bin := pending[len(pending)-1]
		pending = pending[:len(pending)-1]
		pendingNodes -= len(bin)
		resp := q.Query(bin)
		res.Queries++
		if !resp.Saturated {
			confirmed += resp.Count
			if confirmed >= t {
				res.Decision = true
				return res, nil
			}
			continue
		}
		// Saturated: at least k positives inside.
		if confirmed+k >= t && len(bin) >= k {
			// A saturated bin alone proves the remainder.
			confirmed += k
			res.Decision = true
			return res, nil
		}
		if len(bin) <= k {
			// Cannot saturate with fewer repliers than k... defensive:
			// a bin of size <= k that saturates is exactly all-positive.
			confirmed += len(bin)
			if confirmed >= t {
				res.Decision = true
				return res, nil
			}
			continue
		}
		mid := len(bin) / 2
		pending = append(pending, bin[:mid], bin[mid:])
		pendingNodes += len(bin)
	}
	res.Decision = confirmed >= t
	return res, nil
}
