// Package stats provides the small statistical toolkit the experiment
// harness uses to aggregate trial results: streaming moments, confidence
// intervals, and labeled series.
package stats

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// Running accumulates streaming mean and variance using Welford's
// algorithm, which is numerically stable over the millions of observations
// a parameter sweep produces.
type Running struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Observe adds one sample.
func (r *Running) Observe(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	delta := x - r.mean
	r.mean += delta / float64(r.n)
	r.m2 += delta * (x - r.mean)
}

// N returns the number of observations.
func (r *Running) N() int { return r.n }

// Mean returns the sample mean, or 0 with no observations.
func (r *Running) Mean() float64 { return r.mean }

// Variance returns the unbiased sample variance, or 0 for n < 2.
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// StdDev returns the sample standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// Min returns the smallest observation, or 0 with no observations.
func (r *Running) Min() float64 { return r.min }

// Max returns the largest observation, or 0 with no observations.
func (r *Running) Max() float64 { return r.max }

// StdErr returns the standard error of the mean.
func (r *Running) StdErr() float64 {
	if r.n == 0 {
		return 0
	}
	return r.StdDev() / math.Sqrt(float64(r.n))
}

// tCrit95 holds two-sided 95% Student-t critical values indexed by
// degrees of freedom df = 1..29 (tCrit95[df-1]). Beyond df = 29 the
// normal approximation z = 1.96 is within 1.5% and takes over.
var tCrit95 = [29]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045,
}

// CI95 returns the half-width of a 95% confidence interval on the mean,
// using Student-t critical values for small samples (n < 30, where the
// z = 1.96 normal approximation understates the interval — at n = 5 by
// over 40%) and the normal approximation above. It returns 0 for n < 2,
// where no variance estimate exists.
func (r *Running) CI95() float64 {
	df := r.n - 1
	switch {
	case df < 1:
		return 0
	case df <= len(tCrit95):
		return tCrit95[df-1] * r.StdErr()
	default:
		return 1.96 * r.StdErr()
	}
}

// String summarizes the accumulator.
func (r *Running) String() string {
	return fmt.Sprintf("n=%d mean=%.3f ±%.3f sd=%.3f min=%.3f max=%.3f",
		r.n, r.Mean(), r.CI95(), r.StdDev(), r.min, r.max)
}

// sampleSorts counts copy-and-sort passes made by the quantile helpers.
// It exists so a regression test can pin the cost model: Quantile pays
// one sort per call, Quantiles one sort total — callers needing several
// quantiles of one sample must not pay per-quantile sorts.
var sampleSorts atomic.Uint64

// sortedCopy is the single choke point for quantile sorting: one copy,
// one sort, one counter tick.
func sortedCopy(sample []float64) []float64 {
	sampleSorts.Add(1)
	sorted := append([]float64(nil), sample...)
	sort.Float64s(sorted)
	return sorted
}

// Quantile returns the q-quantile (0 <= q <= 1) of the sample using
// linear interpolation between order statistics. The input need not be
// sorted; a sorted copy is made. It panics on an empty sample or a q
// outside [0, 1].
//
// Each call copies and sorts the sample: O(n log n) per quantile. For
// several quantiles of one sample use Quantiles (one sort), and for
// large or streaming samples use metrics.Summary (no sort at all).
func Quantile(sample []float64, q float64) float64 {
	return quantileSorted(sortedCopy(sample), q)
}

// Quantiles returns several quantiles of one sample, sorting a single
// copy once — the input is never mutated, matching Quantile.
func Quantiles(sample []float64, qs ...float64) []float64 {
	sorted := sortedCopy(sample)
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = quantileSorted(sorted, q)
	}
	return out
}

// quantileSorted reads the q-th linearly interpolated quantile from an
// already-sorted sample.
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic("stats: quantile of empty sample")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v outside [0,1]", q))
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo == len(sorted)-1 {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Point is one (x, y) measurement with an uncertainty half-width.
type Point struct {
	X   float64
	Y   float64
	Err float64 // 95% CI half-width, 0 if unknown
	N   int     // number of trials aggregated into this point
}

// Series is a named sequence of points, e.g. one curve of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Append adds a point keeping points in insertion order.
func (s *Series) Append(p Point) { s.Points = append(s.Points, p) }

// YAt returns the Y value at the point with the given X, or an error if no
// such point exists.
func (s *Series) YAt(x float64) (float64, error) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, nil
		}
	}
	return 0, fmt.Errorf("stats: series %q has no point at x=%v", s.Name, x)
}

// Table is a collection of series sharing an X axis: the data behind one
// paper figure.
type Table struct {
	Title  string
	XLabel string
	YLabel string
	Series []*Series
}

// Get returns the series with the given name, or nil.
func (t *Table) Get(name string) *Series {
	for _, s := range t.Series {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Add appends a series to the table.
func (t *Table) Add(s *Series) { t.Series = append(t.Series, s) }
