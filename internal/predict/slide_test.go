package predict

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"dragonfly/internal/geom"
)

// The predictors' sliding windows as they were before they slid in place:
// append, then re-slice the front away. Kept here as the oracle for
// TestSlidingWindowsMatchReslicing — the window's contents and order, and
// so every sum the predictions are made of, must not depend on how the
// eviction moves memory.

func resliceObserveMbps(b *Bandwidth, mbps float64) {
	if mbps <= 0 || math.IsNaN(mbps) || math.IsInf(mbps, 0) {
		return
	}
	b.samples = append(b.samples, mbps)
	if len(b.samples) > b.window {
		b.samples = b.samples[len(b.samples)-b.window:]
	}
}

func resliceObserve(v *Viewport, t time.Duration, o geom.Orientation) {
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
	cut := t.Seconds() - v.history.Seconds()
	i := 0
	for i < len(v.times)-1 && v.times[i] < cut {
		i++
	}
	if i > 0 {
		v.times = v.times[i:]
		v.yaws = v.yaws[i:]
		v.pitches = v.pitches[i:]
	}
}

// headWalk is a seeded random walk of head samples with irregular gaps
// (bursts, pauses longer than the history window), so evictions of zero,
// one and many samples all occur.
func headWalk(rng *rand.Rand, n int) ([]time.Duration, []geom.Orientation) {
	ts := make([]time.Duration, n)
	os := make([]geom.Orientation, n)
	t, o := time.Duration(0), geom.Orientation{}
	for i := range ts {
		switch rng.Intn(20) {
		case 0:
			t += time.Duration(rng.Intn(900)) * time.Millisecond
		case 1: // same instant as the previous sample
		default:
			t += time.Duration(5+rng.Intn(30)) * time.Millisecond
		}
		o = geom.Orientation{
			Yaw:   geom.NormalizeYaw(o.Yaw + 40*rng.NormFloat64()),
			Pitch: geom.ClampPitch(o.Pitch + 5*rng.NormFloat64()),
		}
		ts[i], os[i] = t, o
	}
	return ts, os
}

func TestSlidingWindowsMatchReslicing(t *testing.T) {
	const n = 10000
	rng := rand.New(rand.NewSource(18))
	for _, window := range []int{0, 1, 3, 8} {
		got, want := NewBandwidth(window), NewBandwidth(window)
		for i := 0; i < n; i++ {
			mbps := math.Exp(4 * rng.NormFloat64())
			if rng.Intn(50) == 0 {
				mbps = []float64{0, -1, math.NaN(), math.Inf(1)}[rng.Intn(4)]
			}
			got.observeMbps(mbps)
			resliceObserveMbps(want, mbps)
			if a, b := got.PredictMbps(), want.PredictMbps(); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("window %d, observation %d: PredictMbps %v (%#x), re-slicing reference %v (%#x)",
					window, i, a, math.Float64bits(a), b, math.Float64bits(b))
			}
		}
	}
	for _, history := range []time.Duration{0, 40 * time.Millisecond, 2 * time.Second} {
		ts, os := headWalk(rng, n)
		got, want := NewViewport(history), NewViewport(history)
		for i := range ts {
			got.Observe(ts[i], os[i])
			resliceObserve(want, ts[i], os[i])
			at := ts[i] + time.Duration(rng.Intn(3000))*time.Millisecond
			a, b := got.Predict(at), want.Predict(at)
			if math.Float64bits(a.Yaw) != math.Float64bits(b.Yaw) || math.Float64bits(a.Pitch) != math.Float64bits(b.Pitch) {
				t.Fatalf("history %v, observation %d: Predict %+v, re-slicing reference %+v", history, i, a, b)
			}
		}
	}
}

// Once their windows have filled, the predictors slide them inside the
// arrays they have: a session's thousands of observations allocate nothing.
// Each measured run is several windows' worth of observations, so a window
// that re-allocated once per window's worth (as re-slicing does) would show
// as whole allocations per run, not round down to zero.
func TestObserveSteadyStateZeroAlloc(t *testing.T) {
	b := NewBandwidth(0)
	mbps := 10.0
	observeMbps := func() {
		for i := 0; i < 4*defaultBandwidthWindow; i++ {
			mbps += 0.5
			b.observeMbps(mbps)
		}
	}
	observeMbps()
	if n := testing.AllocsPerRun(50, observeMbps); n != 0 {
		t.Errorf("Bandwidth.observeMbps allocates %v per %d observations in steady state", n, 4*defaultBandwidthWindow)
	}

	v := NewViewport(0)
	const period = 10 * time.Millisecond
	perRun := 4 * int(defaultHistory/period)
	at := time.Duration(0)
	observe := func() {
		for i := 0; i < perRun; i++ {
			at += period
			v.Observe(at, geom.Orientation{Yaw: geom.NormalizeYaw(at.Seconds() * 30), Pitch: 5})
		}
	}
	observe()
	if n := testing.AllocsPerRun(50, observe); n != 0 {
		t.Errorf("Viewport.Observe allocates %v per %d observations in steady state", n, perRun)
	}
}
