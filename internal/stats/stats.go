// Package stats provides the small statistical toolkit the analysis
// pipeline needs: weighted empirical CDFs (every figure in the paper is a
// CDF "of users" or "of /24s"), quantiles, means, and box-and-whisker
// summaries (Fig 6b).
package stats

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// ErrEmpty is returned by constructors handed no observations.
var ErrEmpty = errors.New("stats: no observations")

// WeightedValue is one observation with a non-negative weight. Figures in
// the paper weight observations by user counts; unweighted data uses
// weight 1.
type WeightedValue struct {
	Value  float64
	Weight float64
}

// CDF is an immutable weighted empirical distribution.
type CDF struct {
	values  []float64 // ascending
	cumul   []float64 // cumulative weight, same length, ending at total
	total   float64
	minimum float64
	maximum float64
}

// NewCDF builds a weighted empirical CDF. Zero-weight observations are
// dropped; negative weights are an error. The input slice is not retained.
func NewCDF(obs []WeightedValue) (*CDF, error) {
	filtered := make([]WeightedValue, 0, len(obs))
	for _, o := range obs {
		if o.Weight < 0 {
			return nil, fmt.Errorf("stats: negative weight %v for value %v", o.Weight, o.Value)
		}
		if math.IsNaN(o.Value) || math.IsInf(o.Value, 0) {
			return nil, fmt.Errorf("stats: non-finite value %v", o.Value)
		}
		if o.Weight > 0 {
			filtered = append(filtered, o)
		}
	}
	if len(filtered) == 0 {
		return nil, ErrEmpty
	}
	// slices.SortFunc and sort.Slice share one pdqsort, so equal values
	// keep the order sort.Slice gave them, and with it the float sum of
	// their merged weights.
	slices.SortFunc(filtered, func(a, b WeightedValue) int { return cmp.Compare(a.Value, b.Value) })

	c := &CDF{
		values:  make([]float64, 0, len(filtered)),
		cumul:   make([]float64, 0, len(filtered)),
		minimum: filtered[0].Value,
		maximum: filtered[len(filtered)-1].Value,
	}
	for _, o := range filtered {
		if n := len(c.values); n > 0 && c.values[n-1] == o.Value {
			c.total += o.Weight
			c.cumul[n-1] = c.total
			continue
		}
		c.total += o.Weight
		c.values = append(c.values, o.Value)
		c.cumul = append(c.cumul, c.total)
	}
	return c, nil
}

// NewCDFFromValues builds an unweighted CDF: NewCDF with every weight 1,
// bit for bit, on a sort of plain floats. Each cumulative weight is a
// count, exact in a float64 whatever order equal values sort in, and
// slices.Sort runs the same pdqsort as NewCDF's SortFunc, so even which
// zero of a −0/+0 run is kept agrees. The input slice is not retained.
func NewCDFFromValues(vals []float64) (*CDF, error) {
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("stats: non-finite value %v", v)
		}
	}
	if len(vals) == 0 {
		return nil, ErrEmpty
	}
	sorted := slices.Clone(vals)
	slices.Sort(sorted)
	c := &CDF{
		values:  sorted[:0], // runs of equal values merge in place
		cumul:   make([]float64, 0, len(sorted)),
		total:   float64(len(sorted)),
		minimum: sorted[0],
		maximum: sorted[len(sorted)-1],
	}
	for i, v := range sorted {
		if n := len(c.values); n > 0 && c.values[n-1] == v {
			c.cumul[n-1] = float64(i + 1)
			continue
		}
		c.values = append(c.values, v)
		c.cumul = append(c.cumul, float64(i+1))
	}
	return c, nil
}

// Min returns the smallest observed value.
func (c *CDF) Min() float64 { return c.minimum }

// Max returns the largest observed value.
func (c *CDF) Max() float64 { return c.maximum }

// P returns the cumulative probability P(X <= x).
func (c *CDF) P(x float64) float64 {
	// First index with values[i] > x.
	i := sort.SearchFloat64s(c.values, math.Nextafter(x, math.Inf(1)))
	if i == 0 {
		return 0
	}
	return c.cumul[i-1] / c.total
}

// Quantile returns the smallest value v with P(X <= v) >= q, for q in
// [0, 1]. Out-of-range q values are clamped. A NaN q or an empty CDF
// (the zero value — NewCDF never builds one) returns NaN: the old code
// answered both with garbage, indexing values[-1] on an empty CDF and
// silently returning the maximum for NaN because every `cumul >= NaN`
// comparison is false.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.values) == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q <= 0 {
		return c.minimum
	}
	if q >= 1 {
		return c.maximum
	}
	target := q * c.total
	i := sort.Search(len(c.cumul), func(i int) bool { return c.cumul[i] >= target-1e-12 })
	if i >= len(c.values) {
		i = len(c.values) - 1
	}
	return c.values[i]
}

// Median is Quantile(0.5).
func (c *CDF) Median() float64 { return c.Quantile(0.5) }

// Mean returns the weighted mean.
func (c *CDF) Mean() float64 {
	var sum, prev float64
	for i, v := range c.values {
		w := c.cumul[i] - prev
		prev = c.cumul[i]
		sum += v * w
	}
	return sum / c.total
}

// FractionAbove returns P(X > x) — the paper's frequent "N% of users
// experience more than X ms" statistic.
func (c *CDF) FractionAbove(x float64) float64 { return 1 - c.P(x) }

// Point is one (x, P(X<=x)) sample of the CDF curve.
type Point struct {
	X float64
	P float64
}

// BoxStats is a five-number summary: the box-and-whisker bars of Fig 6b.
type BoxStats struct {
	Min, Q1, Median, Q3, Max float64
	N                        int
}

// Box computes the five-number summary of vals.
func Box(vals []float64) (BoxStats, error) {
	c, err := NewCDFFromValues(vals)
	if err != nil {
		return BoxStats{}, err
	}
	return BoxStats{
		Min:    c.Min(),
		Q1:     c.Quantile(0.25),
		Median: c.Median(),
		Q3:     c.Quantile(0.75),
		Max:    c.Max(),
		N:      len(vals),
	}, nil
}

// String renders the summary compactly.
func (b BoxStats) String() string {
	return fmt.Sprintf("[min=%.1f q1=%.1f med=%.1f q3=%.1f max=%.1f n=%d]",
		b.Min, b.Q1, b.Median, b.Q3, b.Max, b.N)
}

// Mean returns the arithmetic mean of vals, or 0 for an empty slice.
func Mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// Median returns the median of vals (0 for empty input). The input is not
// modified.
func Median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	tmp := make([]float64, len(vals))
	copy(tmp, vals)
	sort.Float64s(tmp)
	n := len(tmp)
	if n%2 == 1 {
		return tmp[n/2]
	}
	return (tmp[n/2-1] + tmp[n/2]) / 2
}
