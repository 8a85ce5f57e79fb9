package predict

import (
	"math"
	"time"

	"dragonfly/internal/geom"
	"dragonfly/internal/trace"
)

// OrientationPredictor is the common interface over viewport-prediction
// methods, enabling ablations of the paper's linear-regression choice
// (which Flare and Pano found to perform well, §2).
type OrientationPredictor interface {
	// Observe feeds one head sample (non-decreasing t).
	Observe(t time.Duration, o geom.Orientation)
	// Predict extrapolates the orientation at a future instant.
	Predict(at time.Duration) geom.Orientation
}

// Static predicts the most recent orientation — the no-motion baseline.
// It is surprisingly competitive at very short windows (users are often
// still) and degrades gracefully: it never overshoots.
type Static struct {
	last geom.Orientation
	seen bool
}

// Observe implements OrientationPredictor.
func (s *Static) Observe(_ time.Duration, o geom.Orientation) {
	s.last = o
	s.seen = true
}

// Predict implements OrientationPredictor.
func (s *Static) Predict(time.Duration) geom.Orientation {
	if !s.seen {
		return geom.Orientation{}
	}
	return s.last
}

// decayHalfLife is the horizon over which Decay's extrapolated velocity
// halves.
const decayHalfLife = 700 * time.Millisecond

// Decay extrapolates with the recent angular velocity attenuated
// exponentially over the prediction horizon: head motion persists briefly
// but rarely continues for seconds, so damping the velocity tempers the
// linear model's overshoot at long windows.
type Decay struct {
	lastT       time.Duration
	last        geom.Orientation
	velYaw      float64 // deg/s, EWMA-smoothed
	velPitch    float64
	seenSamples int
}

// Observe implements OrientationPredictor.
func (d *Decay) Observe(t time.Duration, o geom.Orientation) {
	if d.seenSamples > 0 && t > d.lastT {
		dt := (t - d.lastT).Seconds()
		vy := geom.YawDelta(d.last.Yaw, o.Yaw) / dt
		vp := (o.Pitch - d.last.Pitch) / dt
		const alpha = 0.4
		d.velYaw = alpha*vy + (1-alpha)*d.velYaw
		d.velPitch = alpha*vp + (1-alpha)*d.velPitch
	}
	d.last = o
	d.lastT = t
	d.seenSamples++
}

// Predict implements OrientationPredictor.
func (d *Decay) Predict(at time.Duration) geom.Orientation {
	if d.seenSamples == 0 {
		return geom.Orientation{}
	}
	horizon := (at - d.lastT).Seconds()
	if horizon <= 0 {
		return d.last
	}
	hl := decayHalfLife.Seconds()
	// Integral of v0 * 2^(-t/hl) from 0 to horizon.
	lambda := math.Ln2 / hl
	travel := (1 - math.Exp(-lambda*horizon)) / lambda
	return geom.Orientation{
		Yaw:   geom.NormalizeYaw(d.last.Yaw + d.velYaw*travel),
		Pitch: geom.ClampPitch(d.last.Pitch + d.velPitch*travel),
	}
}

// MethodAccuracy measures viewport-prediction accuracy on a head trace for
// one prediction window: at every decision instant (stepped by step), p
// trains on history up to t, predicts the viewport at t+window, and the
// instant scores the fraction of actual-viewport tiles that the predicted
// viewport covers — the Figure 2 metric ("fraction of tiles in viewport
// that are predicted"), which Figure 2 takes over the regression Viewport.
func MethodAccuracy(p OrientationPredictor, h *trace.HeadTrace, g *geom.Grid, vp geom.Viewport, window, step time.Duration) []float64 {
	if step <= 0 {
		step = 200 * time.Millisecond
	}
	var out []float64
	end := h.Duration() - window
	next := defaultHistory
	for i, s := range h.Samples {
		t := time.Duration(i) * h.SamplePeriod
		p.Observe(t, s)
		if t >= next && t <= end {
			next += step
			predicted := p.Predict(t + window)
			actual := h.At(t + window)
			actualTiles := vp.Tiles(g, actual)
			if len(actualTiles) == 0 {
				continue
			}
			predSet := map[geom.TileID]bool{}
			for _, id := range vp.Tiles(g, predicted) {
				predSet[id] = true
			}
			hit := 0
			for _, id := range actualTiles {
				if predSet[id] {
					hit++
				}
			}
			out = append(out, float64(hit)/float64(len(actualTiles)))
		}
	}
	return out
}
