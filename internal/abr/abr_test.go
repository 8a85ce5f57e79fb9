package abr

import (
	"math"
	"testing"
	"time"

	"dragonfly/internal/video"
)

func TestChunkBudget(t *testing.T) {
	// 8 Mbps for 1 s = 1e6 bytes, discounted by defaultSafety.
	if got := ChunkBudget(8, time.Second); got != int64(1e6*defaultSafety) {
		t.Errorf("budget = %d", got)
	}
	if got := ChunkBudget(-5, time.Second); got != 0 {
		t.Errorf("negative rate budget = %d", got)
	}
}

// TestBudgetsAtExtremeRates pins both budget functions at rates no trace
// reaches: a rate too large to count in bytes fits everything, and one
// that is not positive, or meets no time left, fits nothing. A plain
// int64 conversion turns +Inf and 1e300 into math.MinInt64 on amd64,
// which fitted nothing.
func TestBudgetsAtExtremeRates(t *testing.T) {
	inf := math.Inf(1)
	for _, tc := range []struct {
		mbps float64
		want int64
	}{
		{inf, math.MaxInt64},
		{1e300, math.MaxInt64},
		{math.Inf(-1), 0},
		{math.NaN(), 0},
		{0, 0},
	} {
		if got := ChunkBudget(tc.mbps, time.Second); got != tc.want {
			t.Errorf("ChunkBudget(%v Mbps, 1s) = %d, want %d", tc.mbps, got, tc.want)
		}
	}
	if got := ChunkBudget(inf, 0); got != 0 {
		t.Errorf("ChunkBudget(+Inf, 0) = %d, want 0", got)
	}

	sizes := [video.NumQualities]int64{1000, 2000, 4000, 8000, 16000}
	size := func(q video.Quality) int64 { return sizes[q] }
	fitting := func(budget int64) video.Quality {
		return MaxQualityFitting(size, budget, video.Lowest, video.Highest)
	}
	if got := fitting(ChunkBudget(inf, time.Second)); got != video.Highest {
		t.Errorf("+Inf budget fits quality %d, want %d", got, video.Highest)
	}
	for _, tc := range []struct {
		rate     float64
		timeLeft time.Duration
		want     video.Quality
	}{
		{inf, time.Second, video.Highest},
		{1e300, time.Second, video.Highest},
		{math.Inf(-1), time.Second, video.Lowest},
		{math.NaN(), time.Second, video.Lowest},
		{0, time.Second, video.Lowest},
		{inf, 0, video.Lowest},
		{inf, -time.Second, video.Lowest},
		{1e6, 0, video.Lowest},
		{1e6, -time.Second, video.Lowest},
	} {
		got := QualityForDeadline(size, 5000, tc.rate, tc.timeLeft, video.Lowest, video.Highest)
		if got != tc.want {
			t.Errorf("QualityForDeadline(rate %v, %v left) = %d, want %d", tc.rate, tc.timeLeft, got, tc.want)
		}
	}
}

func TestMaxQualityFitting(t *testing.T) {
	sizes := map[video.Quality]int64{0: 100, 1: 200, 2: 400, 3: 800, 4: 1600}
	cost := func(q video.Quality) int64 { return sizes[q] }
	if got := MaxQualityFitting(cost, 1600, 0, 4); got != 4 {
		t.Errorf("ample budget picked %d", got)
	}
	if got := MaxQualityFitting(cost, 799, 0, 4); got != 2 {
		t.Errorf("mid budget picked %d", got)
	}
	if got := MaxQualityFitting(cost, 50, 0, 4); got != 0 {
		t.Errorf("starved budget picked %d, want floor", got)
	}
	// Respects minQ floor.
	if got := MaxQualityFitting(cost, 50, 1, 4); got != 1 {
		t.Errorf("floored budget picked %d, want 1", got)
	}
}

func TestQualityForDeadline(t *testing.T) {
	sizes := map[video.Quality]int64{0: 1000, 1: 2000, 2: 4000, 3: 8000, 4: 16000}
	size := func(q video.Quality) int64 { return sizes[q] }
	// 10 KB/s for 1 s with no backlog: 10000 bytes => q3.
	if got := QualityForDeadline(size, 0, 10000, time.Second, 0, 4); got != 3 {
		t.Errorf("deadline quality = %d, want 3", got)
	}
	// Backlog eats the budget.
	if got := QualityForDeadline(size, 9000, 10000, time.Second, 0, 4); got != 0 {
		t.Errorf("backlogged quality = %d, want 0", got)
	}
	// Dead link: minimum.
	if got := QualityForDeadline(size, 0, 0, time.Second, 0, 4); got != 0 {
		t.Errorf("dead link quality = %d", got)
	}
}
