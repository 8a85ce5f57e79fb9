// Package stats provides the small statistical toolkit the experiment
// harness uses to turn per-session metrics into the distributions, medians
// and confidence intervals the paper's figures report.
//
// Two families of estimators live here. The exact ones (Mean, Percentile,
// Bootstrap CIs) operate on full in-memory sample slices. Sketch is the
// streaming counterpart: a fixed-bin, equal-width histogram over a declared
// range whose quantiles are correct to within one bin width of the exact
// nearest-rank percentile, and which merges losslessly with any sketch of
// identical geometry — the aggregation primitive behind internal/ingest's
// fleet-wide cohort rollups (see docs/OBSERVABILITY.md for the documented
// accuracy envelope).
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean (0 for empty input).
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

// Median returns the 50th percentile.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Percentile returns the p-th percentile (p in [0, 100]) with linear
// interpolation between order statistics; 0 for empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// StdDev returns the sample standard deviation (0 for fewer than 2 values).
func StdDev(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(n-1))
}

// MeanCI95 returns the mean and the half-width of its 95% confidence
// interval (normal approximation), as the paper's Fig 14(b) error bars.
func MeanCI95(xs []float64) (mean, halfWidth float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	m := Mean(xs)
	if n < 2 {
		return m, 0
	}
	return m, 1.96 * StdDev(xs) / math.Sqrt(float64(n))
}

// CDFPoint is one (value, cumulative fraction) sample of an empirical CDF.
type CDFPoint struct {
	Value float64
	Frac  float64
}

// CDF returns the empirical CDF sampled at up to maxPoints evenly spaced
// ranks — the form every distribution figure in the paper plots.
func CDF(xs []float64, maxPoints int) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if maxPoints <= 0 || maxPoints > len(s) {
		maxPoints = len(s)
	}
	out := make([]CDFPoint, 0, maxPoints)
	for i := 0; i < maxPoints; i++ {
		idx := i * (len(s) - 1) / max(1, maxPoints-1)
		out = append(out, CDFPoint{Value: s[idx], Frac: float64(idx+1) / float64(len(s))})
	}
	return out
}

// FractionAbove returns the fraction of values > threshold.
func FractionAbove(xs []float64, threshold float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x > threshold {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// Summary bundles the order statistics the result tables print.
type Summary struct {
	N                  int
	Mean, Median       float64
	P10, P25, P75, P90 float64
	Min, Max           float64
}

// Summarize computes a Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		Median: Median(xs),
		P10:    Percentile(xs, 10),
		P25:    Percentile(xs, 25),
		P75:    Percentile(xs, 75),
		P90:    Percentile(xs, 90),
		Min:    Percentile(xs, 0),
		Max:    Percentile(xs, 100),
	}
}
