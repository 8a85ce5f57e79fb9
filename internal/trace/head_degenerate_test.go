package trace

import (
	"testing"
	"time"

	"dragonfly/internal/geom"
)

// TestHeadAtZeroSamplePeriod is a regression test for the zero-length-trace
// crash: with SamplePeriod == 0 the interpolation index became +Inf, whose
// int conversion on amd64 produces a negative value, and At panicked with
// an out-of-range slice index for any positive t.
func TestHeadAtZeroSamplePeriod(t *testing.T) {
	h := &HeadTrace{
		UserID:  "degenerate",
		Samples: []geom.Orientation{{Yaw: 10}, {Yaw: 20}, {Yaw: 30}},
		// SamplePeriod left zero.
	}
	if d := h.Duration(); d != 0 {
		t.Fatalf("Duration = %v, want 0", d)
	}
	if got := h.At(0); got.Yaw != 10 {
		t.Fatalf("At(0) = %+v, want first sample", got)
	}
	// Pre-fix this panicked.
	if got := h.At(time.Second); got.Yaw != 30 {
		t.Fatalf("At(1s) = %+v, want last sample", got)
	}
	neg := &HeadTrace{Samples: []geom.Orientation{{Yaw: 5}}, SamplePeriod: -headSamplePeriod}
	if got := neg.At(time.Minute); got.Yaw != 5 {
		t.Fatalf("At with negative period = %+v, want the only sample", got)
	}
}
