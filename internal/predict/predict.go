// Package predict implements the two predictors every view-centric 360°
// streaming system needs: a viewport predictor (linear regression over
// recent head samples, as in Flare and Pano — paper §2, §3.3) and a network
// throughput predictor (harmonic mean over recent samples, per the
// MPC-style estimator the paper cites [49]).
package predict

import (
	"math"
	"math/rand"
	"time"

	"dragonfly/internal/geom"
)

// Viewport predicts future head orientations from a sliding history window
// by fitting one least-squares line each to the (unwrapped) yaw and pitch
// series. The zero value is not usable; call NewViewport.
type Viewport struct {
	history time.Duration // how much history feeds the regression

	times   []float64 // seconds
	yaws    []float64 // unwrapped (cumulative) yaw, degrees
	pitches []float64

	lastYaw    float64
	haveSample bool

	// shift injects synthetic prediction error: each observation's
	// coordinates are displaced by a uniform random offset in [-D, D]
	// degrees (the Figs 21–23 sensitivity methodology, following Pano).
	shiftDeg float64
	shiftRng *rand.Rand
}

// defaultHistory is the regression window. Flare and Pano fit over the most
// recent fraction of a second of samples.
const defaultHistory = 500 * time.Millisecond

// NewViewport creates a predictor with the given history window (0 means
// defaultHistory).
func NewViewport(history time.Duration) *Viewport {
	if history <= 0 {
		history = defaultHistory
	}
	return &Viewport{history: history}
}

// NewViewportWithError creates a predictor whose observations are displaced
// by uniform noise in [-shiftDeg, +shiftDeg], deterministically from seed.
func NewViewportWithError(history time.Duration, shiftDeg float64, seed int64) *Viewport {
	v := NewViewport(history)
	v.shiftDeg = shiftDeg
	v.shiftRng = rand.New(rand.NewSource(seed))
	return v
}

// Observe feeds one head sample at time t. Samples must arrive in
// non-decreasing time order.
func (v *Viewport) Observe(t time.Duration, o geom.Orientation) {
	if v.shiftRng != nil && v.shiftDeg > 0 {
		o.Yaw = geom.NormalizeYaw(o.Yaw + (v.shiftRng.Float64()*2-1)*v.shiftDeg)
		o.Pitch = geom.ClampPitch(o.Pitch + (v.shiftRng.Float64()*2-1)*v.shiftDeg)
	}
	var unwrapped float64
	if !v.haveSample {
		unwrapped = o.Yaw
		v.haveSample = true
	} else {
		unwrapped = v.yaws[len(v.yaws)-1] + geom.YawDelta(v.lastYaw, o.Yaw)
	}
	v.lastYaw = o.Yaw
	v.times = append(v.times, t.Seconds())
	v.yaws = append(v.yaws, unwrapped)
	v.pitches = append(v.pitches, o.Pitch)
	// Evict samples older than the history window, sliding the rest down
	// in place: re-slicing from the front would walk the window off the end
	// of its array and re-allocate it every window's worth of samples.
	cut := t.Seconds() - v.history.Seconds()
	i := 0
	for i < len(v.times)-1 && v.times[i] < cut {
		i++
	}
	if i > 0 {
		v.times = v.times[:copy(v.times, v.times[i:])]
		v.yaws = v.yaws[:copy(v.yaws, v.yaws[i:])]
		v.pitches = v.pitches[:copy(v.pitches, v.pitches[i:])]
	}
}

// Predict extrapolates the orientation at future time t. With fewer than two
// samples it returns the last observation (or zero orientation if none).
func (v *Viewport) Predict(t time.Duration) geom.Orientation {
	n := len(v.times)
	if n == 0 {
		return geom.Orientation{}
	}
	if n == 1 {
		return geom.Orientation{Yaw: geom.NormalizeYaw(v.yaws[0]), Pitch: geom.ClampPitch(v.pitches[0])}
	}
	ts := t.Seconds()
	yaw := linearExtrapolate(v.times, v.yaws, ts)
	pitch := linearExtrapolate(v.times, v.pitches, ts)
	return geom.Orientation{Yaw: geom.NormalizeYaw(yaw), Pitch: geom.ClampPitch(pitch)}
}

// linearExtrapolate fits y = a + b·x by least squares and evaluates at x.
// Degenerate fits (all x equal) return the mean of y.
func linearExtrapolate(xs, ys []float64, x float64) float64 {
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if math.Abs(den) < 1e-12 {
		return sy / n
	}
	b := (n*sxy - sx*sy) / den
	a := (sy - b*sx) / n
	return a + b*x
}

// Bandwidth estimates future throughput as the harmonic mean of the most
// recent sample window; the harmonic mean is robust to transient spikes and
// is the estimator used by MPC [49] and adopted by the paper's throughput
// predictor.
type Bandwidth struct {
	window  int
	samples []float64 // Mbps, most recent last
}

// defaultBandwidthWindow is the number of throughput samples retained.
const defaultBandwidthWindow = 8

// NewBandwidth creates a throughput predictor (window 0 means default).
func NewBandwidth(window int) *Bandwidth {
	if window <= 0 {
		window = defaultBandwidthWindow
	}
	return &Bandwidth{window: window, samples: make([]float64, 0, window)}
}

// ObserveTransfer records a completed transfer of the given size/duration.
// Degenerate observations (no bytes or no elapsed time) are ignored.
func (b *Bandwidth) ObserveTransfer(bytes int64, dur time.Duration) {
	if bytes <= 0 || dur <= 0 {
		return
	}
	b.observeMbps(float64(bytes) * 8 / dur.Seconds() / 1e6)
}

// observeMbps records a throughput sample directly.
func (b *Bandwidth) observeMbps(mbps float64) {
	if mbps <= 0 || math.IsNaN(mbps) || math.IsInf(mbps, 0) {
		return
	}
	if n := len(b.samples); n >= b.window {
		// Slide the newest window-1 samples down in place (see
		// Viewport.Observe).
		b.samples = b.samples[:copy(b.samples, b.samples[n-b.window+1:])]
	}
	b.samples = append(b.samples, mbps)
}

// PredictMbps returns the harmonic-mean estimate, or 0 with no
// observations.
func (b *Bandwidth) PredictMbps() float64 {
	if len(b.samples) == 0 {
		return 0
	}
	inv := 0.0
	for _, s := range b.samples {
		inv += 1 / s
	}
	return float64(len(b.samples)) / inv
}
