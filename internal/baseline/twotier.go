package baseline

import (
	"sort"
	"time"

	"dragonfly/internal/abr"
	"dragonfly/internal/player"
	"dragonfly/internal/video"
)

// TwoTier streams a low-quality full-360° base plus a uniform-quality
// enhancement for the predicted viewport. Unlike Dragonfly it picks one
// quality for all enhancement tiles, decides once per chunk without
// refinement, passively skips enhancement tiles that miss their deadline,
// and stalls when the base stream itself is late (Table 1).
type TwoTier struct {
	assigned map[int][]player.RequestItem
}

// NewTwoTier creates the baseline with the paper's look-aheads (3 s base,
// 1 s enhancement).
func NewTwoTier() *TwoTier {
	return &TwoTier{assigned: make(map[int][]player.RequestItem)}
}

// Name implements player.Scheme.
func (t *TwoTier) Name() string { return "Two-tier" }

// DecisionInterval implements player.Scheme: per-chunk decisions.
func (t *TwoTier) DecisionInterval() time.Duration { return time.Second }

// StallPolicy implements player.Scheme: Two-tier stalls when base-stream
// tiles for the current viewport are missing; enhancement tiles are
// passively skipped.
func (t *TwoTier) StallPolicy() player.StallPolicy { return player.StallOnMissingMasking }

// Decide implements player.Scheme.
func (t *TwoTier) Decide(ctx *player.Context) []player.RequestItem {
	m := ctx.Manifest
	nowChunk := m.ChunkOfFrame(ctx.PlayFrame)

	// Base stream: full-360° chunks across the long look-ahead.
	maskLast := ctx.PlayFrame + int(maskingLookahead.Seconds()*float64(m.FPS))
	if maskLast >= m.NumFrames() {
		maskLast = m.NumFrames() - 1
	}
	var items []player.RequestItem
	for c := nowChunk; c <= m.ChunkOfFrame(maskLast); c++ {
		if !ctx.Received.HasFullMasking(c) {
			items = append(items, player.RequestItem{Stream: player.Masking, Chunk: c, Full360: true, Quality: video.Lowest})
		}
	}

	// Enhancement stream: one-shot per-chunk assignment over the short
	// look-ahead.
	primLast := ctx.PlayFrame + int(primaryLookahead.Seconds()*float64(m.FPS))
	if primLast >= m.NumFrames() {
		primLast = m.NumFrames() - 1
	}
	for c := nowChunk; c <= m.ChunkOfFrame(primLast); c++ {
		if _, done := t.assigned[c]; !done {
			t.assigned[c] = t.assignChunk(ctx, c)
		}
		items = append(items, t.assigned[c]...)
	}
	return items
}

// assignChunk picks the uniform enhancement quality for one chunk: the
// highest level whose predicted-viewport cost fits the budget left after
// the base stream.
func (t *TwoTier) assignChunk(ctx *player.Context, chunk int) []player.RequestItem {
	m := ctx.Manifest
	chunkDur := time.Duration(m.ChunkFrames) * ctx.FrameDuration
	budget := abr.ChunkBudget(ctx.PredictedMbps, chunkDur) - m.Full360Size(chunk, video.Lowest)
	if budget < 0 {
		budget = 0
	}

	at := ctx.FrameDeadline(m.FirstFrame(chunk))
	if at < ctx.Now {
		at = ctx.Now
	}
	center := ctx.Predict(at)
	vpTiles := ctx.Viewport.Tiles(ctx.Grid, center)

	q := abr.MaxQualityFitting(func(q video.Quality) int64 {
		total := int64(0)
		for _, id := range vpTiles {
			total += m.TileSize(chunk, id, q)
		}
		return total
	}, budget, video.Lowest+1, video.Highest)

	u := center.Unit()
	sort.Slice(vpTiles, func(a, b int) bool {
		da := ctx.Grid.CenterDistance(vpTiles[a], u)
		db := ctx.Grid.CenterDistance(vpTiles[b], u)
		if da != db {
			return da < db
		}
		return vpTiles[a] < vpTiles[b]
	})
	items := make([]player.RequestItem, 0, len(vpTiles))
	for _, id := range vpTiles {
		items = append(items, player.RequestItem{Stream: player.Primary, Chunk: chunk, Tile: id, Quality: q})
	}
	return items
}
