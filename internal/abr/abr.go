// Package abr provides the chunk-level adaptive-bitrate substrate used by
// the single-decision baselines (Pano, Two-tier): a rate-based budget with
// a safety margin, and helpers to pick the best quality fitting a budget.
// The paper's baselines pick a bitrate per chunk with a traditional ABR
// algorithm and then map it onto tile qualities (§4.1).
//
// This is deliberately the simplest credible ABR — a throughput estimate
// discounted by a fixed safety factor, as rate-based players ship it — so
// that the baselines' quality differences against Dragonfly come from
// their tile-selection logic, not from ABR sophistication. The functions
// here are pure and allocation-free; they are called on the per-decision
// hot path of every baseline scheme (see internal/player.Scheme).
package abr

import (
	"time"

	"dragonfly/internal/video"
)

// DefaultSafety discounts the throughput estimate when budgeting, absorbing
// prediction error as rate-based ABRs do.
const DefaultSafety = 0.9

// ChunkBudget returns the byte budget for one chunk of the given duration
// at the predicted throughput. A non-positive or NaN safety falls back to
// DefaultSafety, and a non-positive or NaN throughput budgets nothing.
func ChunkBudget(predictedMbps float64, chunkDur time.Duration, safety float64) int64 {
	if !(safety > 0) {
		safety = DefaultSafety
	}
	if !(predictedMbps > 0) {
		predictedMbps = 0
	}
	return int64(predictedMbps * 1e6 / 8 * chunkDur.Seconds() * safety)
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
// non-positive or NaN rate fits nothing.
func QualityForDeadline(size func(video.Quality) int64, backlogBytes int64, rateBytesPerSec float64, timeLeft time.Duration, minQ, maxQ video.Quality) video.Quality {
	if !(rateBytesPerSec > 0) {
		return minQ
	}
	budget := int64(rateBytesPerSec*timeLeft.Seconds()) - backlogBytes
	return MaxQualityFitting(size, budget, minQ, maxQ)
}
