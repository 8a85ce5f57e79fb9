// Package core implements Dragonfly's contribution: the utility-driven
// tile scheduler with proactive skipping (paper §3.1, Algorithm 1) and the
// two-stream transmission design with a low-quality masking stream fetched
// at a longer look-ahead (§3.2).
//
// Decide runs every 100 ms of every session, so the package is built around
// doing each piece of work once: window and scheduler are per-session
// scratch arenas (steady-state decisions allocate nothing), location scores
// come from shared overlap tables and are evaluated only at the samples a
// tile's own chunk can see, and the scheduler keeps the evaluation of its
// fetch list — arrivals and running gain sums — beside the list, so an
// insertion attempt recomputes only what the candidate being placed can
// change, walking arrivals to frames in the one direction they move. None
// of that may alter a decision: the scheduler as it was before it cached
// anything is kept in scheduler_ref_test.go, the score pass as it was
// before it skipped anything in window_ref_test.go, and the production
// code must match both bit for bit.
package core

import (
	"time"

	"dragonfly/internal/geom"
	"dragonfly/internal/quality"
	"dragonfly/internal/video"
)

// MaskingStrategy selects how the masking stream is transmitted (§3.2).
type MaskingStrategy int

const (
	// maskFull360 transmits the whole chunk untiled at the lowest quality —
	// the strategy of the paper's emulation experiments.
	maskFull360 MaskingStrategy = iota
	// MaskTiled transmits lowest-quality tiles within a per-chunk
	// displacement bound around the predicted viewport — the strategy of
	// the paper's user study.
	MaskTiled
	// MaskNone disables the masking stream (the NoMask ablation variant).
	MaskNone
)

// String implements fmt.Stringer.
func (s MaskingStrategy) String() string {
	switch s {
	case MaskTiled:
		return "tiled"
	case MaskNone:
		return "none"
	default:
		return "full360"
	}
}

// Options configures Dragonfly and its ablation variants (Table 2).
type Options struct {
	// Metric selects the per-tile quality score driving utilities (§3.1
	// "Q_iq can be set based on any quality metric").
	Metric quality.Metric

	// DecisionInterval is how often fetch decisions are refined (100 ms;
	// one chunk for the PerChunk variant).
	DecisionInterval time.Duration

	// RoIs are the concentric regions of interest of the location score.
	RoIs geom.RoISet

	// Masking selects the masking-stream strategy.
	Masking MaskingStrategy

	// MaskScheduled applies the §3.1 utility scheduler to the tiled masking
	// stream itself (the first §3.2 future-work optimization): masking
	// fetches are ordered — and skipped — by utility instead of plain chunk
	// order. Only meaningful with Masking == MaskTiled.
	MaskScheduled bool

	// frameStep subsamples window frames when computing location scores
	// (1 = every frame; the default is 2). Larger steps trade fidelity for
	// speed; only this package's tests set it.
	frameStep int

	// ExactGeometry disables the precomputed overlap tables and re-samples
	// the sphere on every overlap query (the pre-table behavior). The
	// tables quantize the view orientation to a fine grid (see
	// geom.TableParams); set this for bit-exact location scores at a
	// significant per-decision cost.
	ExactGeometry bool

	// Name overrides the reported scheme name (for ablation variants).
	Name string
}

const (
	// primaryLookahead is the scheduling window W of the primary stream,
	// maskingLookahead that of the masking stream (§3, §4.2).
	primaryLookahead = time.Second
	maskingLookahead = 3 * time.Second
	// tiledMaskFallbackDeg is the displacement bound MaskTiled uses when the
	// manifest carries no per-chunk displacement.
	tiledMaskFallbackDeg = 40.0
	// maxCandidates bounds the per-decision candidate set for safety.
	maxCandidates = 220
)

// defaultOptions returns the paper's evaluation configuration.
func defaultOptions() Options {
	return Options{
		Metric:           quality.PSNR,
		DecisionInterval: 100 * time.Millisecond,
		RoIs:             geom.DefaultRoIs,
		Masking:          maskFull360,
		frameStep:        2,
	}
}

// minPrimaryQuality returns the lowest quality usable by the primary
// stream: with a masking stream, the lowest encoding is reserved for
// masking and the primary uses the remaining four (§4.2); without masking
// all five levels are available.
func (o Options) minPrimaryQuality() video.Quality {
	if o.Masking == MaskNone {
		return video.Lowest
	}
	return video.Lowest + 1
}
