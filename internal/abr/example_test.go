package abr_test

import (
	"fmt"
	"time"

	"dragonfly/internal/abr"
	"dragonfly/internal/video"
)

// ExampleMaxQualityFitting picks the best quality level whose chunk cost
// fits a throughput budget — the rate-based ABR decision Pano and Two-tier
// make once per chunk.
func ExampleMaxQualityFitting() {
	sizes := map[video.Quality]int64{0: 100_000, 1: 200_000, 2: 400_000, 3: 800_000, 4: 1_600_000}
	cost := func(q video.Quality) int64 { return sizes[q] }

	budget := abr.ChunkBudget(8, time.Second) // 8 Mbps for a 1 s chunk
	q := abr.MaxQualityFitting(cost, budget, 0, video.NumQualities-1)
	fmt.Printf("budget %d bytes -> quality level %d (QP %d)\n", budget, q, q.QP())
	// Output:
	// budget 900000 bytes -> quality level 3 (QP 27)
}
