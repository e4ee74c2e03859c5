package main

import (
	"fmt"
	"math"
	"sort"
)

// latencies summarises one workload's per-operation latencies. A failed
// operation is recorded as +Inf, so it counts as missing every latency
// limit and pushes the percentiles up instead of vanishing from them.
type latencies []float64

// percentile returns the nearest-rank p-quantile (0 < p < 1) of the
// samples: the smallest sample with at least a share p of all samples at
// or below it. Empty input returns NaN.
func (l latencies) percentile(p float64) float64 {
	if len(l) == 0 {
		return math.NaN()
	}
	s := append(latencies(nil), l...)
	sort.Float64s(s)
	return s[rank(len(s), p)]
}

// rank is the nearest-rank index of the p-quantile in n sorted samples.
func rank(n int, p float64) int {
	// The epsilon keeps p*n from rounding up past an exact rank (0.99*1000
	// is not exactly 990 in floating point).
	i := int(math.Ceil(p*float64(n)-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// tailPercentile finds the highest of p90, p99, p99.9, ... that still has
// at least ten samples beyond it, the tail the sample can support. It
// returns the percentile's label ("p99.9"), its value, and false when not
// even p90 has ten samples beyond it.
func (l latencies) tailPercentile() (string, float64, bool) {
	n := len(l)
	label, value, ok := "", 0.0, false
	for nines := 1; ; nines++ {
		p := 1 - math.Pow(10, -float64(nines))
		if n-rank(n, p)-1 < 10 {
			return label, value, ok
		}
		label = "p" + trimFloat(100*p)
		value, ok = l.percentile(p), true
	}
}

// trimFloat renders 99.9 as "99.9" and 90 as "90".
func trimFloat(v float64) string {
	s := fmt.Sprintf("%.6f", v)
	for s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	if s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	return s
}

// within counts the samples at or below limit; a failed operation (+Inf)
// misses every limit, +Inf included.
func (l latencies) within(limit float64) int {
	n := 0
	for _, v := range l {
		if v <= limit && !math.IsInf(v, 1) {
			n++
		}
	}
	return n
}

// quartiles returns the first quartile, median and third quartile with the
// same exclusive interpolation as Python's statistics.quantiles(n=4), so the
// spreads printed by -compare match the ones Python computes from the same
// result lines. One value is its own quartiles.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// median of values (NaN for none).
func median(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}

// mean of values (0 for none).
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// span is one timed call at a layer boundary, recorded by the benchmark's
// shims: Trace groups the spans of one session, Parent is the enclosing
// span's ID (-1 for the session root), and Start/End are wall-clock
// nanoseconds since the recorder's epoch.
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// selfTimes returns each layer's self time over spans: a span's duration
// minus the part of its interval that its child spans cover, summed per
// layer. Children may overlap or spill past their parent; only the union
// of their intervals clipped to the parent is subtracted.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]int64)
	for _, s := range spans {
		self[s.Layer] += s.End - s.Start - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals within
// the parent's interval.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}
