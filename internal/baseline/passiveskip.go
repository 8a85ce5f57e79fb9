package baseline

import (
	"sort"
	"time"

	"dragonfly/internal/abr"
	"dragonfly/internal/geom"
	"dragonfly/internal/player"
	"dragonfly/internal/video"
)

// PassiveSkip is the Table 2 ablation variant that keeps Dragonfly's two
// streams and 100 ms refinement but replaces the utility scheduler with a
// passive discipline: fetch every predicted-viewport tile in deadline order
// at a uniform budget-fitting quality, and simply skip whatever misses its
// deadline. Comparing it against Dragonfly isolates the value of
// utility-driven proactive skipping (§4.4).
//
// An instance carries the primary stream's candidate list and cap tiles
// as per-session scratch reused across decisions, so each session needs
// its own instance; the fetch list is built in the Context's FetchList
// buffer, and steady-state Decide calls allocate nothing.
type PassiveSkip struct {
	tiles []geom.TileID
	wants wantSorter
}

// passiveWant is one primary-stream candidate tile.
type passiveWant struct {
	chunk int
	tile  geom.TileID
	dist  float64
}

// wantSorter orders candidates by deadline (chunk), then by angular
// distance from the predicted view center, ties by tile ID: a total order,
// so any sort yields the one permutation. A named type passed by pointer
// keeps sort.Sort allocation-free.
type wantSorter struct{ wants []passiveWant }

func (s *wantSorter) Len() int      { return len(s.wants) }
func (s *wantSorter) Swap(i, j int) { s.wants[i], s.wants[j] = s.wants[j], s.wants[i] }
func (s *wantSorter) Less(i, j int) bool {
	a, b := s.wants[i], s.wants[j]
	if a.chunk != b.chunk {
		return a.chunk < b.chunk
	}
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.tile < b.tile
}

// NewPassiveSkip creates the variant with the paper's look-aheads (3 s
// masking, 1 s primary).
func NewPassiveSkip() *PassiveSkip { return &PassiveSkip{} }

// Name implements player.Scheme.
func (p *PassiveSkip) Name() string { return "PassiveSkip" }

// DecisionInterval implements player.Scheme: like Dragonfly, 100 ms.
func (p *PassiveSkip) DecisionInterval() time.Duration { return 100 * time.Millisecond }

// StallPolicy implements player.Scheme: playback never stalls.
func (p *PassiveSkip) StallPolicy() player.StallPolicy { return player.NeverStall }

// Decide implements player.Scheme.
func (p *PassiveSkip) Decide(ctx *player.Context) []player.RequestItem {
	m := ctx.Manifest

	// Masking stream, identical to Dragonfly's full-360° strategy.
	nowChunk := m.ChunkOfFrame(ctx.PlayFrame)
	buf := ctx.FetchList()
	items := (*buf)[:0]
	var maskBytes int64
	for c, last := nowChunk, ctx.LastChunk(maskingLookahead); c <= last; c++ {
		if !ctx.Received.HasFullMasking(c) {
			items = append(items, player.RequestItem{Stream: player.Masking, Chunk: c, Full360: true, Quality: video.Lowest})
			maskBytes += m.Full360Size(c, video.Lowest)
		}
	}

	// Primary stream: all tiles of the predicted viewport plus a periphery
	// ring (the "direct adaptation of existing techniques" — Flare's fetch
	// region) over the short window, strictly deadline-ordered, at one
	// uniform quality that fits the budget left after masking. No
	// prioritization, no proactive skips.
	wants := p.wants.wants[:0]
	for c, last := nowChunk, ctx.LastChunk(primaryLookahead); c <= last; c++ {
		center := ctx.Predict(ctx.ChunkStart(c))
		u := center.Unit()
		p.tiles = ctx.Grid.AppendTilesInCap(p.tiles[:0], center, ctx.Viewport.RadiusDeg+15)
		for _, id := range p.tiles {
			if _, ok := ctx.Received.BestPrimary(c, id); ok {
				continue
			}
			wants = append(wants, passiveWant{chunk: c, tile: id,
				dist: ctx.Grid.CenterDistance(id, u)})
		}
	}
	p.wants.wants = wants
	sort.Sort(&p.wants)

	budget := abr.ChunkBudget(ctx.PredictedMbps, primaryLookahead) - maskBytes
	if budget < 0 {
		budget = 0
	}
	q := abr.MaxQualityFitting(func(q video.Quality) int64 {
		total := int64(0)
		for _, w := range wants {
			total += m.TileSize(w.chunk, w.tile, q)
		}
		return total
	}, budget, video.Lowest+1, video.Highest)

	for _, w := range wants {
		items = append(items, player.RequestItem{Stream: player.Primary, Chunk: w.chunk, Tile: w.tile, Quality: q})
	}
	*buf = items
	return items
}
