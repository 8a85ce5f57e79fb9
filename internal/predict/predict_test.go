package predict

import (
	"math"
	"sort"
	"testing"
	"time"

	"dragonfly/internal/geom"
	"dragonfly/internal/stats"
	"dragonfly/internal/trace"
)

func TestViewportPredictConstant(t *testing.T) {
	p := NewViewport(0)
	for i := 0; i < 10; i++ {
		p.Observe(time.Duration(i)*40*time.Millisecond, geom.Orientation{Yaw: 30, Pitch: -10})
	}
	got := p.Predict(2 * time.Second)
	if math.Abs(got.Yaw-30) > 1e-6 || math.Abs(got.Pitch+10) > 1e-6 {
		t.Errorf("constant head predicted %+v", got)
	}
}

func TestViewportPredictLinear(t *testing.T) {
	p := NewViewport(time.Second)
	// 20 deg/s yaw drift, 5 deg/s pitch drift.
	for i := 0; i <= 25; i++ {
		tt := time.Duration(i) * 40 * time.Millisecond
		p.Observe(tt, geom.Orientation{Yaw: 20 * tt.Seconds(), Pitch: 5 * tt.Seconds()})
	}
	got := p.Predict(2 * time.Second) // expect yaw 40, pitch 10
	if math.Abs(got.Yaw-40) > 0.5 || math.Abs(got.Pitch-10) > 0.5 {
		t.Errorf("linear prediction = %+v, want yaw 40 pitch 10", got)
	}
}

func TestViewportPredictAcrossWrap(t *testing.T) {
	p := NewViewport(time.Second)
	// Steady 100 deg/s rotation passing through the ±180 wrap.
	for i := 0; i <= 25; i++ {
		tt := time.Duration(i) * 40 * time.Millisecond
		p.Observe(tt, geom.Orientation{Yaw: geom.NormalizeYaw(150 + 100*tt.Seconds()), Pitch: 0})
	}
	got := p.Predict(1500 * time.Millisecond) // 150 + 150 = 300 => -60
	if math.Abs(geom.YawDelta(-60, got.Yaw)) > 1.5 {
		t.Errorf("wrap prediction yaw = %v, want ~-60", got.Yaw)
	}
}

func TestViewportPredictEmptyAndSingle(t *testing.T) {
	p := NewViewport(0)
	if got := p.Predict(time.Second); got != (geom.Orientation{}) {
		t.Errorf("empty predictor = %+v", got)
	}
	p.Observe(0, geom.Orientation{Yaw: 12, Pitch: 3})
	got := p.Predict(time.Second)
	if got.Yaw != 12 || got.Pitch != 3 {
		t.Errorf("single-sample prediction = %+v", got)
	}
}

func TestViewportHistoryEviction(t *testing.T) {
	p := NewViewport(200 * time.Millisecond)
	// Old fast movement followed by a long static period: prediction should
	// reflect only the recent (static) window.
	for i := 0; i < 10; i++ {
		p.Observe(time.Duration(i)*40*time.Millisecond, geom.Orientation{Yaw: float64(i) * 10, Pitch: 0})
	}
	for i := 10; i < 40; i++ {
		p.Observe(time.Duration(i)*40*time.Millisecond, geom.Orientation{Yaw: 90, Pitch: 0})
	}
	got := p.Predict(3 * time.Second)
	if math.Abs(got.Yaw-90) > 1 {
		t.Errorf("stale history leaked into prediction: yaw %v, want 90", got.Yaw)
	}
}

func TestViewportPitchClamped(t *testing.T) {
	p := NewViewport(time.Second)
	for i := 0; i <= 25; i++ {
		tt := time.Duration(i) * 40 * time.Millisecond
		p.Observe(tt, geom.Orientation{Yaw: 0, Pitch: 80 * tt.Seconds()})
	}
	got := p.Predict(5 * time.Second)
	if got.Pitch > 90 || got.Pitch < -90 {
		t.Errorf("pitch not clamped: %v", got.Pitch)
	}
}

func TestAccuracyDegradesWithWindow(t *testing.T) {
	// The paper's Figure 2: median accuracy falls sharply as the prediction
	// window grows (94.2% at 0.2 s vs 25.4% at 3 s on real traces).
	g := geom.NewGrid(12, 12)
	vp := geom.DefaultViewport
	med := func(window time.Duration) float64 {
		var all []float64
		for seed := int64(0); seed < 6; seed++ {
			h := trace.GenerateHead(trace.HeadGenParams{Class: trace.MotionClass(seed % 3), Seed: seed + 40})
			all = append(all, MethodAccuracy(NewViewport(0), h, g, vp, window, 200*time.Millisecond)...)
		}
		sort.Float64s(all)
		return all[len(all)/2]
	}
	short := med(200 * time.Millisecond)
	long := med(3 * time.Second)
	if short < 0.85 {
		t.Errorf("short-window median accuracy %v, want > 0.85", short)
	}
	if long > short-0.1 {
		t.Errorf("accuracy did not degrade: %.3f @0.2s vs %.3f @3s", short, long)
	}
}

func TestErrorInjectionHurtsAccuracy(t *testing.T) {
	g := geom.NewGrid(12, 12)
	vp := geom.DefaultViewport
	h := trace.GenerateHead(trace.HeadGenParams{Class: trace.MotionMedium, Seed: 11})
	run := func(shift float64) float64 {
		return stats.Mean(MethodAccuracy(NewViewportWithError(0, shift, 99), h, g, vp, time.Second, 400*time.Millisecond))
	}
	clean := run(0)
	noisy := run(40)
	if noisy >= clean {
		t.Errorf("40 deg injected error should hurt accuracy: clean %.3f noisy %.3f", clean, noisy)
	}
}

func TestBandwidthHarmonicMean(t *testing.T) {
	b := NewBandwidth(4)
	b.observeMbps(10)
	b.observeMbps(10)
	if got := b.PredictMbps(); math.Abs(got-10) > 1e-9 {
		t.Errorf("constant samples: %v", got)
	}
	b2 := NewBandwidth(4)
	b2.observeMbps(5)
	b2.observeMbps(20)
	// Harmonic mean of 5 and 20 = 8.
	if got := b2.PredictMbps(); math.Abs(got-8) > 1e-9 {
		t.Errorf("harmonic mean = %v, want 8", got)
	}
}

func TestBandwidthWindowEviction(t *testing.T) {
	b := NewBandwidth(2)
	b.observeMbps(1)
	b.observeMbps(100)
	b.observeMbps(100)
	// The 1 Mbps sample has been evicted.
	if got := b.PredictMbps(); math.Abs(got-100) > 1e-9 {
		t.Errorf("eviction failed: %v", got)
	}
}

func TestBandwidthIgnoresDegenerate(t *testing.T) {
	b := NewBandwidth(0)
	b.ObserveTransfer(0, time.Second)
	b.ObserveTransfer(100, 0)
	b.observeMbps(-3)
	b.observeMbps(math.NaN())
	if got := b.PredictMbps(); got != 0 {
		t.Errorf("degenerate observations produced estimate %v", got)
	}
	b.ObserveTransfer(1e6, time.Second) // 8 Mbps
	if got := b.PredictMbps(); math.Abs(got-8) > 1e-9 {
		t.Errorf("transfer observation = %v, want 8", got)
	}
}

func BenchmarkViewportPredict(b *testing.B) {
	p := NewViewport(0)
	for i := 0; i < 25; i++ {
		p.Observe(time.Duration(i)*40*time.Millisecond, geom.Orientation{Yaw: float64(i), Pitch: 0})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Predict(time.Second)
	}
}
