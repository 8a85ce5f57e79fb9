package baseline

import (
	"sort"
	"time"

	"dragonfly/internal/abr"
	"dragonfly/internal/geom"
	"dragonfly/internal/player"
	"dragonfly/internal/video"
)

// TwoTier streams a low-quality full-360° base plus a uniform-quality
// enhancement for the predicted viewport. Unlike Dragonfly it picks one
// quality for all enhancement tiles, decides once per chunk without
// refinement, passively skips enhancement tiles that miss their deadline,
// and stalls when the base stream itself is late (Table 1).
//
// An instance carries per-session state (the committed chunks' plans and
// their tiles) and scratch (the centrality sort keys), so each session
// needs its own instance; the fetch list is built in the Context's
// FetchList buffer, and a Decide that commits no new chunk allocates
// nothing.
type TwoTier struct {
	// plans[c] is chunk c's enhancement decision, made once.
	plans   []tierPlan
	tiles   []geom.TileID // every plan's tiles, chunk after chunk
	central centralitySorter
}

// tierPlan is one committed chunk: its enhancement quality and its
// viewport tiles, tiles[lo:hi] in centrality order.
type tierPlan struct {
	lo, hi int32
	q      video.Quality
	done   bool
}

// NewTwoTier creates the baseline with the paper's look-aheads (3 s base,
// 1 s enhancement).
func NewTwoTier() *TwoTier { return &TwoTier{} }

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
	if len(t.plans) != m.NumChunks {
		t.plans = make([]tierPlan, m.NumChunks)
	}
	nowChunk := m.ChunkOfFrame(ctx.PlayFrame)

	// Base stream: full-360° chunks across the long look-ahead.
	buf := ctx.FetchList()
	items := (*buf)[:0]
	for c, last := nowChunk, ctx.LastChunk(maskingLookahead); c <= last; c++ {
		if !ctx.Received.HasFullMasking(c) {
			items = append(items, player.RequestItem{Stream: player.Masking, Chunk: c, Full360: true, Quality: video.Lowest})
		}
	}

	// Enhancement stream: one-shot per-chunk assignment over the short
	// look-ahead.
	for c, last := nowChunk, ctx.LastChunk(primaryLookahead); c <= last; c++ {
		plan := &t.plans[c]
		if !plan.done {
			t.assignChunk(ctx, c, plan)
		}
		for _, id := range t.tiles[plan.lo:plan.hi] {
			items = append(items, player.RequestItem{Stream: player.Primary, Chunk: c, Tile: id, Quality: plan.q})
		}
	}
	*buf = items
	return items
}

// assignChunk picks the uniform enhancement quality for one chunk into
// plan: the highest level whose predicted-viewport cost fits the budget
// left after the base stream, over the viewport's tiles in centrality
// order.
func (t *TwoTier) assignChunk(ctx *player.Context, chunk int, plan *tierPlan) {
	m := ctx.Manifest
	chunkDur := time.Duration(m.ChunkFrames) * ctx.FrameDuration
	budget := abr.ChunkBudget(ctx.PredictedMbps, chunkDur) - m.Full360Size(chunk, video.Lowest)
	if budget < 0 {
		budget = 0
	}

	center := ctx.Predict(ctx.ChunkStart(chunk))
	lo := len(t.tiles)
	t.tiles = ctx.Grid.AppendTilesInCap(t.tiles, center, ctx.Viewport.RadiusDeg)
	vpTiles := t.tiles[lo:]

	q := abr.MaxQualityFitting(func(q video.Quality) int64 {
		total := int64(0)
		for _, id := range vpTiles {
			total += m.TileSize(chunk, id, q)
		}
		return total
	}, budget, video.Lowest+1, video.Highest)

	// The centrality order is total (IDs are distinct), so any sort yields
	// the one permutation.
	keys, u := t.central.keys[:0], center.Unit()
	for _, id := range vpTiles {
		keys = append(keys, centralKey{dist: ctx.Grid.CenterDistance(id, u), id: id})
	}
	t.central.keys = keys
	sort.Sort(&t.central)
	for i, k := range keys {
		vpTiles[i] = k.id
	}
	*plan = tierPlan{lo: int32(lo), hi: int32(len(t.tiles)), q: q, done: true}
}
