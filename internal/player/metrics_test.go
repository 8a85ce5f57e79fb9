package player

import (
	"math"
	"testing"
	"time"

	"dragonfly/internal/geom"
	"dragonfly/internal/trace"
	"dragonfly/internal/video"
)

// TestRatioAccessorsZeroDenominator is the zero-denominator audit: every
// ratio accessor must return 0 (never NaN or Inf) for a session that
// rendered nothing and received nothing — the shape produced by a
// zero-length trace or an empty sweep.
func TestRatioAccessorsZeroDenominator(t *testing.T) {
	m := &Metrics{}
	checks := map[string]float64{
		"RebufferRatio":       m.RebufferRatio(),
		"WastagePct":          m.WastagePct(),
		"IncompleteFramePct":  m.IncompleteFramePct(),
		"PrimarySkipFramePct": m.PrimarySkipFramePct(),
		"MedianScore":         m.MedianScore(),
		"ScorePercentile":     m.ScorePercentile(90),
		"MeanScore":           m.MeanScore(),
		"MeanBlankArea":       m.MeanBlankArea(),
		"QualityShare":        m.QualityShare(video.Highest),
		"MaskingShare":        m.MaskingShare(),
		"BlankShare":          m.BlankShare(),
	}
	for name, v := range checks {
		if math.IsNaN(v) || math.IsInf(v, 0) || v != 0 {
			t.Errorf("%s on empty session = %v, want 0", name, v)
		}
	}
}

// TestRatioAccessorsPartialSessions exercises the denominators one at a
// time: each accessor must stay finite when only its numerator is set.
func TestRatioAccessorsPartialSessions(t *testing.T) {
	stallOnly := &Metrics{RebufferDuration: 2 * time.Second}
	if got := stallOnly.RebufferRatio(); math.IsNaN(got) || got < 0 || got > 1 {
		t.Errorf("RebufferRatio with stall but no playback = %v, want a finite ratio in [0, 1]", got)
	}
	wasteOnly := &Metrics{BytesReceived: 1000, BytesUseful: 1000}
	if got := wasteOnly.WastagePct(); got != 0 {
		t.Errorf("WastagePct with all bytes useful = %v, want 0", got)
	}
}

// TestRunRejectsDegenerateHeadTrace locks in the fix for the zero-length
// trace hazard: a head trace with no samples or no positive sample period
// previously wedged the engine's event loop forever (the head schedule
// never advanced); now it is rejected up front.
func TestRunRejectsDegenerateHeadTrace(t *testing.T) {
	degenerate := []*trace.HeadTrace{
		{UserID: "u", SamplePeriod: headPeriod},                                          // no samples
		{UserID: "u", Samples: make([]geom.Orientation, 10)},                             // zero period
		{UserID: "u", Samples: make([]geom.Orientation, 10), SamplePeriod: -time.Second}, // negative period
	}
	for _, head := range degenerate {
		_, err := Run(Config{
			Manifest:  smallManifest(),
			Head:      head,
			Bandwidth: flatBandwidth(20),
			Scheme:    &testScheme{name: "all", interval: 100 * time.Millisecond, policy: NeverStall},
		})
		if err == nil {
			t.Fatalf("Run accepted degenerate head trace (period=%v, samples=%d)", head.SamplePeriod, len(head.Samples))
		}
	}
}
