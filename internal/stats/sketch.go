package stats

import (
	"fmt"
	"math"
)

// Sketch is a fixed-bin mergeable quantile sketch: an online histogram over
// a fixed value range whose cumulative counts approximate the empirical CDF
// of everything folded into it. Two sketches with the same geometry merge
// by adding bins, which makes it the aggregation primitive for fleet-wide
// rollups: every server (or ingest shard) folds its own sessions and the
// merged result is exactly what a single sketch over the union would hold.
//
// Accuracy contract: for the true q-quantile value v with Lo <= v <= Hi,
// Quantile returns an estimate within one bin width, (Hi-Lo)/bins, of v
// (linear interpolation inside the bin). Values outside [Lo, Hi] are
// clamped into the edge bins, so quantiles that fall in a saturated edge
// bin report the range bound; size the range so the population's support
// fits inside it. The zero Sketch is not usable; call NewSketch.
//
// All fold state is integral — bin counts plus a fixed-point sum — so Add
// and Merge commute exactly: Mean and every quantile are bit-identical for
// any fold order, worker count or shard layout, which a float sum's
// accumulation order would break. Sum counts the clamped observations in
// ticks of 1e-6, or in whole units when the range reaches past ±1e5 (a
// byte count needs no fraction). Either way one Add moves Sum by at most
// 1e11 ticks for any range within ±1e11, so the int64 holds 9.2e7
// observations at the end of the range before it could wrap.
type Sketch struct {
	Lo, Hi float64  // value range covered by the bins
	Bins   []uint64 // per-bin observation counts
	N      uint64   // total observations
	Sum    int64    // exact sum of the clamped observations, in ticks

	ticks float64 // ticks per unit of value: 1e6 or 1, fixed by the range
}

// NewSketch creates a sketch covering [lo, hi] with the given number of
// equal-width bins. It panics on a degenerate geometry (hi <= lo, bins < 1):
// geometries are compile-time constants of their callers, not runtime data.
func NewSketch(lo, hi float64, bins int) *Sketch {
	if hi <= lo || bins < 1 {
		panic(fmt.Sprintf("stats: degenerate sketch geometry [%g, %g] / %d bins", lo, hi, bins))
	}
	ticks := 1e6
	if math.Max(math.Abs(lo), math.Abs(hi)) > 1e5 {
		ticks = 1
	}
	return &Sketch{Lo: lo, Hi: hi, Bins: make([]uint64, bins), ticks: ticks}
}

// binWidth returns the value span of one bin — the quantile error envelope.
func (s *Sketch) binWidth() float64 { return (s.Hi - s.Lo) / float64(len(s.Bins)) }

// Add folds one observation. NaN is ignored; values outside [Lo, Hi] clamp
// into the edge bins (Sum accumulates the clamped value rounded to the
// nearest tick, keeping Mean inside the declared range).
func (s *Sketch) Add(v float64) {
	if math.IsNaN(v) {
		return
	}
	if v < s.Lo {
		v = s.Lo
	}
	if v > s.Hi {
		v = s.Hi
	}
	i := int((v - s.Lo) / s.binWidth())
	if i >= len(s.Bins) { // v == Hi lands one past the end
		i = len(s.Bins) - 1
	}
	s.Bins[i]++
	s.N++
	s.Sum += int64(math.Round(v * s.ticks))
}

// Merge folds other into s. The two sketches must share a geometry
// (identical Lo, Hi and bin count); merging mismatched geometries would
// silently mis-bin, so it is an error instead.
func (s *Sketch) Merge(other *Sketch) error {
	if other == nil {
		return nil
	}
	if s.Lo != other.Lo || s.Hi != other.Hi || len(s.Bins) != len(other.Bins) {
		return fmt.Errorf("stats: sketch geometry mismatch: [%g, %g]/%d vs [%g, %g]/%d",
			s.Lo, s.Hi, len(s.Bins), other.Lo, other.Hi, len(other.Bins))
	}
	for i, c := range other.Bins {
		s.Bins[i] += c
	}
	s.N += other.N
	s.Sum += other.Sum
	return nil
}

// mean returns the arithmetic mean of the folded (clamped) observations,
// exact to one tick and independent of fold and merge order, or 0 when
// empty.
func (s *Sketch) mean() float64 {
	if s.N == 0 {
		return 0
	}
	return float64(s.Sum) / s.ticks / float64(s.N)
}

// quantile returns the estimated p-th percentile (p in [0, 100]) with
// linear interpolation across the containing bin, or 0 when the sketch is
// empty. See the type comment for the error envelope.
func (s *Sketch) quantile(p float64) float64 {
	if s.N == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	// Rank of the target observation, 1-based, matching nearest-rank with
	// interpolation on the cumulative counts.
	rank := p / 100 * float64(s.N)
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	w := s.binWidth()
	for i, c := range s.Bins {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			// Interpolate within the bin by the rank's position in it.
			frac := (rank - float64(cum)) / float64(c)
			return s.Lo + (float64(i)+frac)*w
		}
		cum += c
	}
	return s.Hi
}

// SketchSummary is the exported form of one distribution: what the ingest
// /rollup document and the popsim summary both carry per metric.
type SketchSummary struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P10   float64 `json:"p10"`
	P25   float64 `json:"p25"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Summary exports the sketch's count, mean and quantiles.
func (s *Sketch) Summary() SketchSummary {
	return SketchSummary{
		Count: s.N,
		Mean:  s.mean(),
		P10:   s.quantile(10),
		P25:   s.quantile(25),
		P50:   s.quantile(50),
		P90:   s.quantile(90),
		P99:   s.quantile(99),
	}
}
