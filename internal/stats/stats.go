// Package stats provides the small set of descriptive statistics used
// throughout the DORA reproduction: means, spreads, error metrics and
// empirical CDFs. All functions operate on float64 slices and are
// deliberately allocation-light so they can be called inside simulation
// loops.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that cannot produce a meaningful
// result for an empty sample.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs. It returns 0 for an empty
// slice; callers that need to distinguish use MeanErr.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// MeanErr is Mean with an explicit empty-sample error.
func MeanErr(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	return Mean(xs), nil
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Min returns the smallest element of xs, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Variance returns the population variance of xs (zero for fewer than
// two samples).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	mu := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - mu
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// MSE returns the mean squared error between predictions and targets.
// The slices must have equal nonzero length.
func MSE(pred, obs []float64) (float64, error) {
	if len(pred) != len(obs) {
		return 0, errors.New("stats: length mismatch")
	}
	if len(pred) == 0 {
		return 0, ErrEmpty
	}
	s := 0.0
	for i := range pred {
		d := pred[i] - obs[i]
		s += d * d
	}
	return s / float64(len(pred)), nil
}

// MAPE returns the mean absolute percentage error of pred against obs,
// expressed as a fraction (0.025 == 2.5%). Observations equal to zero
// are skipped; if all observations are zero it returns ErrEmpty.
func MAPE(pred, obs []float64) (float64, error) {
	if len(pred) != len(obs) {
		return 0, errors.New("stats: length mismatch")
	}
	s, n := 0.0, 0
	for i := range pred {
		if obs[i] == 0 {
			continue
		}
		s += math.Abs((pred[i] - obs[i]) / obs[i])
		n++
	}
	if n == 0 {
		return 0, ErrEmpty
	}
	return s / float64(n), nil
}

// AbsRelErrors returns |pred-obs|/|obs| element-wise, skipping zero
// observations.
func AbsRelErrors(pred, obs []float64) []float64 {
	out := make([]float64, 0, len(pred))
	for i := range pred {
		if i >= len(obs) || obs[i] == 0 {
			continue
		}
		out = append(out, math.Abs((pred[i]-obs[i])/obs[i]))
	}
	return out
}

// CDF is an empirical cumulative distribution function over a sample.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from xs. The input is copied.
func NewCDF(xs []float64) *CDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// Len returns the number of samples backing the CDF.
func (c *CDF) Len() int { return len(c.sorted) }

// At returns P(X <= x): the fraction of samples less than or equal to x.
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	// First index with value > x.
	i := sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i] > x })
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the smallest sample value v such that At(v) >= q,
// for q in (0,1]. Quantile(0) returns the minimum.
func (c *CDF) Quantile(q float64) (float64, error) {
	if len(c.sorted) == 0 {
		return 0, ErrEmpty
	}
	if q <= 0 {
		return c.sorted[0], nil
	}
	if q > 1 {
		return 0, errors.New("stats: quantile out of range")
	}
	idx := int(math.Ceil(q*float64(len(c.sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(c.sorted) {
		idx = len(c.sorted) - 1
	}
	return c.sorted[idx], nil
}

// Points returns up to n evenly spaced (x, P(X<=x)) pairs suitable for
// plotting the CDF as a step curve. It returns the full sample when
// n <= 0 or n >= Len().
func (c *CDF) Points(n int) (xs, ps []float64) {
	m := len(c.sorted)
	if m == 0 {
		return nil, nil
	}
	if n <= 0 || n >= m {
		n = m
	}
	xs = make([]float64, n)
	ps = make([]float64, n)
	for i := 0; i < n; i++ {
		idx := i * (m - 1) / max(n-1, 1)
		xs[i] = c.sorted[idx]
		ps[i] = float64(idx+1) / float64(m)
	}
	return xs, ps
}

// Welford accumulates a running mean and variance without storing the
// sample, using Welford's online algorithm.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations so far.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the running population variance.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// StdDev returns the running population standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }
