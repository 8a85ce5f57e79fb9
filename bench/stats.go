package bench

import (
	"math"
	"sort"
	"time"
)

// numSegments is how many equal-op segments the measured phase is split
// into; ops_per_s is the median segment rate, so one noisy-neighbour stall
// costs one segment, not the run.
const numSegments = 9

// opSample is one completed op: when it ended (since the phase started) and
// how long it took.
type opSample struct {
	end time.Duration
	dur time.Duration
}

// median returns the middle value (mean of the two middle values for an even
// count); 0 for empty input. xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile (p in (0, 100]) of an
// ascending-sorted slice; 0 for empty input.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailPercentile is the highest percentile, capped at 99, that still has at
// least ten samples beyond it (the choosing-metrics rule); with fewer than
// twenty samples it degrades to the median.
func tailPercentile(n int) float64 {
	if n < 20 {
		return 50
	}
	return math.Min(99, 100*(1-10/float64(n)))
}

// unitSample is one completed unit of a worker: when it ran (since the phase
// started) and how many ops it completed.
type unitSample struct {
	start, end time.Duration
	ops        int
}

// segmentRates splits the measured phase into numSegments equal-op segments
// and returns each segment's rate in op/s. Every unit of a workload holds the
// same number of ops, and a worker runs its units back to back, so a worker's
// units are cut into numSegments runs of consecutive units; a run's rate is
// its ops over the time from its first unit's start to its last unit's end,
// and segment s is the sum over workers of their run s. Cutting at unit
// boundaries per worker keeps the op mix of every segment the same: a cut
// through the middle of a unit (a population member's cheap and dear sessions,
// a session's handshake and rounds) would give segments different work.
// Workers that ran nothing are left out; fewer units than segments gives
// fewer segments.
func segmentRates(workers [][]unitSample) []float64 {
	segs := numSegments
	for _, us := range workers {
		if len(us) > 0 && len(us) < segs {
			segs = len(us)
		}
	}
	rates := make([]float64, segs)
	ran := false
	for _, us := range workers {
		if len(us) == 0 {
			continue
		}
		ran = true
		for s := 0; s < segs; s++ {
			lo, hi := s*len(us)/segs, (s+1)*len(us)/segs
			ops := 0
			for _, u := range us[lo:hi] {
				ops += u.ops
			}
			span := us[hi-1].end - us[lo].start
			if span <= 0 {
				span = time.Nanosecond
			}
			rates[s] += float64(ops) / span.Seconds()
		}
	}
	if !ran {
		return nil
	}
	return rates
}

// coeffVar is the sample standard deviation over the mean.
func coeffVar(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return math.Sqrt(ss/float64(len(xs)-1)) / mean
}

// quartiles returns the first quartile, median and third quartile with the
// "exclusive" method of Python's statistics.quantiles(values, n=4), the
// estimator the acceptance check uses. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func toMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func toUS(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// durationsMS converts op durations to ascending milliseconds.
func durationsMS(ops []opSample) []float64 {
	out := make([]float64, len(ops))
	for i, o := range ops {
		out[i] = toMS(o.dur)
	}
	sort.Float64s(out)
	return out
}
