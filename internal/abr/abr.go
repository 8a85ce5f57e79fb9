// Package abr provides the chunk-level adaptive-bitrate substrate of the
// baselines (Flare, Pano, Two-tier and PassiveSkip): a rate-based budget
// with a safety margin, and helpers to pick the best quality fitting a
// budget or a deadline. The paper's baselines pick a bitrate per chunk with
// a traditional ABR algorithm and then map it onto tile qualities (§4.1).
//
// This is deliberately the simplest credible ABR — a throughput estimate
// discounted by a fixed safety factor, as rate-based players ship it — so
// that the baselines' quality differences against Dragonfly come from
// their tile-selection logic, not from ABR sophistication. The functions
// here are pure and allocation-free; they are called on the per-decision
// hot path of every baseline scheme (see internal/player.Scheme).
package abr

import (
	"math"
	"time"

	"dragonfly/internal/video"
)

// defaultSafety discounts the throughput estimate when budgeting, absorbing
// prediction error as rate-based ABRs do.
const defaultSafety = 0.9

// ChunkBudget returns the byte budget for one chunk of the given duration
// at the predicted throughput, discounted by defaultSafety. A non-positive
// or NaN throughput budgets nothing; one too large to count in bytes
// (+Inf included) budgets math.MaxInt64, so everything fits.
func ChunkBudget(predictedMbps float64, chunkDur time.Duration) int64 {
	if !(predictedMbps > 0) {
		predictedMbps = 0
	}
	return saturate(predictedMbps * 1e6 / 8 * chunkDur.Seconds() * defaultSafety)
}

// saturate converts a byte count to int64, clamping it to the int64 range.
// Go leaves an out-of-range conversion implementation-defined, and on
// amd64 +Inf would become math.MinInt64: the lowest quality, not the
// highest. NaN converts to 0.
func saturate(bytes float64) int64 {
	switch {
	case bytes >= math.MaxInt64:
		return math.MaxInt64
	case bytes <= math.MinInt64:
		return math.MinInt64
	case bytes != bytes:
		return 0
	}
	return int64(bytes)
}

// MaxQualityFitting returns the highest quality in [minQ, maxQ] whose cost
// (per the cost function) fits the budget, or minQ if none fits.
func MaxQualityFitting(cost func(video.Quality) int64, budget int64, minQ, maxQ video.Quality) video.Quality {
	for q := maxQ; q > minQ; q-- {
		if cost(q) <= budget {
			return q
		}
	}
	return minQ
}

// QualityForDeadline picks the highest quality in [minQ, maxQ] whose
// transfer (bytes at the given rate, after the given backlog) completes
// before the deadline; it returns minQ if even that is late (the caller
// fetches at minimum quality and hopes, as Flare does — §2, Fig 4). A
// non-positive or NaN rate, or no time left, fits nothing; an infinite
// rate with time left fits everything.
func QualityForDeadline(size func(video.Quality) int64, backlogBytes int64, rateBytesPerSec float64, timeLeft time.Duration, minQ, maxQ video.Quality) video.Quality {
	if !(rateBytesPerSec > 0) || timeLeft <= 0 {
		return minQ
	}
	budget := saturate(rateBytesPerSec*timeLeft.Seconds()) - backlogBytes
	return MaxQualityFitting(size, budget, minQ, maxQ)
}
