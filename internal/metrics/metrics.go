// Package metrics provides the small statistics toolkit the evaluation
// harness uses: empirical CDFs, means with 99% confidence intervals, and
// simple series formatting matching the paper's reporting style.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// CDF is an empirical cumulative distribution over durations.
type CDF struct {
	sorted []time.Duration
}

// NewCDF builds a CDF from samples (copied and sorted).
func NewCDF(samples []time.Duration) *CDF {
	s := make([]time.Duration, len(samples))
	copy(s, samples)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return &CDF{sorted: s}
}

// N returns the sample count.
func (c *CDF) N() int { return len(c.sorted) }

// Quantile returns the q-quantile (0 <= q <= 1) by nearest-rank.
func (c *CDF) Quantile(q float64) time.Duration {
	if len(c.sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	idx := int(math.Ceil(q*float64(len(c.sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return c.sorted[idx]
}

// Mean returns the sample mean.
func (c *CDF) Mean() time.Duration {
	if len(c.sorted) == 0 {
		return 0
	}
	var sum time.Duration
	for _, v := range c.sorted {
		sum += v
	}
	return sum / time.Duration(len(c.sorted))
}

// Max returns the largest sample.
func (c *CDF) Max() time.Duration { return c.Quantile(1) }

// Rows renders the CDF as "value fraction" rows at each sample point —
// the series a plotting tool would consume for the paper's figures.
func (c *CDF) Rows() string {
	var b strings.Builder
	for i, v := range c.sorted {
		fmt.Fprintf(&b, "%.1f\t%.3f\n",
			float64(v)/float64(time.Millisecond),
			float64(i+1)/float64(len(c.sorted)))
	}
	return b.String()
}

// Summary is a one-line digest used in the experiment tables.
func (c *CDF) Summary() string {
	return fmt.Sprintf("n=%d mean=%.1fms p50=%.1fms p90=%.1fms max=%.1fms",
		c.N(),
		float64(c.Mean())/float64(time.Millisecond),
		float64(c.Quantile(0.5))/float64(time.Millisecond),
		float64(c.Quantile(0.9))/float64(time.Millisecond),
		float64(c.Max())/float64(time.Millisecond))
}

// MeanCI returns the mean of xs and the half-width of its 99% confidence
// interval (normal approximation, as in the paper's Fig. 8 error bars).
func MeanCI(xs []float64) (mean, halfWidth float64) {
	n := float64(len(xs))
	if n == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= n
	if n < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / (n - 1))
	const z99 = 2.576
	return mean, z99 * sd / math.Sqrt(n)
}

// Improvement returns the relative improvement of a over b in percent:
// negative values mean a is faster/smaller than b (the paper reports,
// e.g., B4: -39.1%).
func Improvement(a, b time.Duration) float64 {
	if b == 0 {
		return 0
	}
	return (float64(a) - float64(b)) / float64(b) * 100
}
