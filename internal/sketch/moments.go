package sketch

import (
	"fmt"
	"math"
	"strings"
)

// Moments is a streaming summary of count, sum, min, max, and centered
// second moment (Welford's update). It is a fixed 48 bytes regardless of
// how many values it has seen.
type Moments struct {
	N    uint64
	Sum  float64
	Min  float64
	Max  float64
	mean float64
	m2   float64
}

// Observe folds one value into the summary.
func (m *Moments) Observe(v float64) {
	if m.N == 0 {
		m.Min, m.Max = v, v
	} else {
		if v < m.Min {
			m.Min = v
		}
		if v > m.Max {
			m.Max = v
		}
	}
	m.N++
	m.Sum += v
	d := v - m.mean
	m.mean += d / float64(m.N)
	m.m2 += d * (v - m.mean)
}

// Mean returns the running mean, or 0 for an empty summary.
func (m *Moments) Mean() float64 {
	if m.N == 0 {
		return 0
	}
	return m.mean
}

// Variance returns the sample variance (n-1 denominator), or 0 when
// fewer than two values have been observed.
func (m *Moments) Variance() float64 {
	if m.N < 2 {
		return 0
	}
	return m.m2 / float64(m.N-1)
}

// Stddev returns the sample standard deviation.
func (m *Moments) Stddev() float64 { return math.Sqrt(m.Variance()) }

// AppendTo renders the summary on one deterministic line.
func (m *Moments) AppendTo(b *strings.Builder) {
	fmt.Fprintf(b, "moments n=%d sum=%g min=%g max=%g mean=%g stddev=%g\n",
		m.N, m.Sum, m.Min, m.Max, m.Mean(), m.Stddev())
}

// String implements fmt.Stringer via AppendTo.
func (m *Moments) String() string {
	var b strings.Builder
	m.AppendTo(&b)
	return b.String()
}
