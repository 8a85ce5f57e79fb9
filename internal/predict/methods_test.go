package predict

import (
	"math"
	"sort"
	"testing"
	"time"

	"dragonfly/internal/geom"
	"dragonfly/internal/trace"
)

func TestStaticPredictor(t *testing.T) {
	var s Static
	if got := s.Predict(time.Second); got != (geom.Orientation{}) {
		t.Errorf("empty static = %+v", got)
	}
	s.Observe(0, geom.Orientation{Yaw: 42, Pitch: 7})
	s.Observe(time.Second, geom.Orientation{Yaw: 50, Pitch: 8})
	got := s.Predict(10 * time.Second)
	if got.Yaw != 50 || got.Pitch != 8 {
		t.Errorf("static should hold the last sample, got %+v", got)
	}
}

func TestDecayPredictor(t *testing.T) {
	var d Decay
	if got := d.Predict(time.Second); got != (geom.Orientation{}) {
		t.Errorf("empty decay = %+v", got)
	}
	// Constant 30 deg/s yaw.
	for i := 0; i <= 25; i++ {
		tt := time.Duration(i) * 40 * time.Millisecond
		d.Observe(tt, geom.Orientation{Yaw: 30 * tt.Seconds(), Pitch: 0})
	}
	short := d.Predict(1100 * time.Millisecond) // 100 ms ahead
	long := d.Predict(4 * time.Second)          // 3 s ahead
	linearShort := 30.0 + 30*0.1
	if math.Abs(short.Yaw-linearShort) > 1.5 {
		t.Errorf("short-horizon decay yaw %v, want ~%v", short.Yaw, linearShort)
	}
	// The long horizon must undershoot the pure linear extrapolation
	// (30 + 90 = 120 degrees) by a wide margin.
	if long.Yaw > 100 {
		t.Errorf("decay should damp long-horizon travel, got %v", long.Yaw)
	}
	if long.Yaw <= short.Yaw {
		t.Errorf("decay should keep moving forward: %v then %v", short.Yaw, long.Yaw)
	}
	// Prediction at/before the last sample returns it.
	if got := d.Predict(0); got.Yaw != d.last.Yaw {
		t.Errorf("past-horizon prediction = %+v", got)
	}
}

// TestRegressionAsOrientationPredictor: the linear-regression Viewport is
// an OrientationPredictor as it stands, with no adapter between them.
func TestRegressionAsOrientationPredictor(t *testing.T) {
	var r OrientationPredictor = NewViewport(0)
	for i := 0; i <= 25; i++ {
		tt := time.Duration(i) * 40 * time.Millisecond
		r.Observe(tt, geom.Orientation{Yaw: 10 * tt.Seconds(), Pitch: 0})
	}
	got := r.Predict(2 * time.Second)
	if math.Abs(got.Yaw-20) > 0.5 {
		t.Errorf("regression yaw %v, want 20", got.Yaw)
	}
}

func TestMethodAccuracyComparisons(t *testing.T) {
	g := geom.NewGrid(12, 12)
	vp := geom.DefaultViewport
	med := func(mk func() OrientationPredictor, window time.Duration) float64 {
		var all []float64
		for seed := int64(0); seed < 5; seed++ {
			h := trace.GenerateHead(trace.HeadGenParams{Class: trace.MotionClass(seed % 3), Seed: seed + 90})
			all = append(all, MethodAccuracy(mk(), h, g, vp, window, 200*time.Millisecond)...)
		}
		sort.Float64s(all)
		return all[len(all)/2]
	}
	newStatic := func() OrientationPredictor { return &Static{} }
	newDecay := func() OrientationPredictor { return &Decay{} }
	newRegression := func() OrientationPredictor { return NewViewport(0) }

	// Regression should beat static at a short window (it tracks motion).
	shortReg := med(newRegression, 500*time.Millisecond)
	shortStatic := med(newStatic, 500*time.Millisecond)
	if shortReg < shortStatic-0.02 {
		t.Errorf("regression (%.3f) should not trail static (%.3f) at short windows", shortReg, shortStatic)
	}
	// All methods degrade with the window.
	for name, mk := range map[string]func() OrientationPredictor{
		"static": newStatic, "decay": newDecay, "regression": newRegression,
	} {
		s := med(mk, 200*time.Millisecond)
		l := med(mk, 3*time.Second)
		if l > s {
			t.Errorf("%s: accuracy improved with window (%.3f -> %.3f)", name, s, l)
		}
	}
	// Decay should not be wildly worse than regression anywhere.
	longDecay := med(newDecay, 3*time.Second)
	longReg := med(newRegression, 3*time.Second)
	if longDecay < longReg-0.35 {
		t.Errorf("decay collapsed at long windows: %.3f vs regression %.3f", longDecay, longReg)
	}
}
