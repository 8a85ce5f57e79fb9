// Package baseline implements the state-of-the-art systems the paper
// compares against — Flare [38], Pano [24] and Two-tier [43] — plus the
// PassiveSkip ablation variant of Table 2. All of them were re-implemented
// by the paper's authors on the Dragonfly codebase (§4.1 "Scheme
// implementations"); this package does the same on top of internal/player.
//
// Each scheme is a player.Scheme: Flare fetches a predicted-viewport
// region plus periphery with per-ring quality drops; Pano optimizes a
// per-chunk quality assignment under an abr.ChunkBudget; Two-tier layers a
// full-360° base stream under viewport-driven enhancement; PassiveSkip is
// Dragonfly's scheduler with proactive skipping disabled. Flare and Pano
// stall on any missing viewport tile, Two-tier on a missing base tile;
// PassiveSkip keeps Dragonfly's continuous (never-stall) playback and
// skips only passively, at the render deadline.
//
// Schemes here follow the same Decide contract as internal/core: each
// builds its fetch list in the Context's FetchList buffer, valid through
// the next Decide on that Context, and the *Context is caller-owned, so a
// scheme keeps nothing of it across decisions.
package baseline

import (
	"sort"
	"time"

	"dragonfly/internal/abr"
	"dragonfly/internal/geom"
	"dragonfly/internal/player"
	"dragonfly/internal/video"
)

// The periphery ring extends the fetched region peripheryDeg beyond the
// viewport cap, at peripheryDrop quality levels below the viewport's.
const peripheryDeg, peripheryDrop = 15, 2

// Two-tier and PassiveSkip fetch the full-360° base stream over the
// paper's masking look-ahead and the viewport over its primary look-ahead
// (§4.2).
const maskingLookahead, primaryLookahead = 3 * time.Second, time.Second

// defaultLookahead is Flare's and Pano's look-ahead (§4.2); §4.3 also
// evaluates 1 s.
const defaultLookahead = 3 * time.Second

// FlareOptions configures the Flare baseline.
type FlareOptions struct {
	// Lookahead is how far ahead tiles are fetched (paper default: 3 s,
	// with a 1 s sensitivity variant in §4.3).
	Lookahead time.Duration
}

// Flare fetches the predicted viewport plus a periphery ring, refines its
// decision every 100 ms, urgently re-fetches tiles discovered to be needed
// for imminent playback (at whatever quality still meets the deadline), and
// stalls when a viewport tile misses its deadline.
//
// An instance carries per-session scratch reused across decisions (the
// per-chunk tile sets, the centrality sort keys), so each session needs its
// own instance; the fetch list is built in the Context's FetchList buffer,
// and steady-state Decide calls allocate nothing.
type Flare struct {
	opts FlareOptions

	vpTiles   []geom.TileID
	periphery []geom.TileID
	central   centralitySorter
}

// centralitySorter orders a chunk's viewport tiles by angular distance from
// the predicted view center, ties by tile ID. Each distance is computed
// once, into keys; a named type passed by pointer keeps sort.Sort
// allocation-free.
type centralitySorter struct{ keys []centralKey }

type centralKey struct {
	dist float64
	id   geom.TileID
}

func (s *centralitySorter) Len() int      { return len(s.keys) }
func (s *centralitySorter) Swap(i, j int) { s.keys[i], s.keys[j] = s.keys[j], s.keys[i] }
func (s *centralitySorter) Less(i, j int) bool {
	a, b := s.keys[i], s.keys[j]
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.id < b.id
}

// NewFlare creates the baseline with the paper's defaults.
func NewFlare(opts FlareOptions) *Flare {
	if opts.Lookahead == 0 {
		opts.Lookahead = defaultLookahead
	}
	return &Flare{opts: opts}
}

// Name implements player.Scheme: "Flare", with a "-<Lookahead>" suffix
// when the look-ahead is not the 3 s default.
func (f *Flare) Name() string { return "Flare" + lookaheadSuffix(f.opts.Lookahead) }

// lookaheadSuffix names a non-default look-ahead in a scheme name: "-1s".
func lookaheadSuffix(d time.Duration) string {
	if d == defaultLookahead {
		return ""
	}
	return "-" + d.String()
}

// DecisionInterval implements player.Scheme: Flare refines every 100 ms
// (Table 1).
func (f *Flare) DecisionInterval() time.Duration { return 100 * time.Millisecond }

// StallPolicy implements player.Scheme: Flare pauses playback until all
// viewport tiles arrive (Table 1).
func (f *Flare) StallPolicy() player.StallPolicy { return player.StallOnMissingAny }

// Decide implements player.Scheme.
func (f *Flare) Decide(ctx *player.Context) []player.RequestItem {
	m := ctx.Manifest
	rate := ctx.PredictedMbps * 1e6 / 8
	chunkDur := time.Duration(m.ChunkFrames) * ctx.FrameDuration

	// Urgent pass: tiles needed for the *current* viewport right now but
	// never fetched — pick the quality that still meets the deadline
	// (often the lowest; Fig 4's persistent low quality).
	buf := ctx.FetchList()
	items := (*buf)[:0]
	var backlog int64
	nowChunk := m.ChunkOfFrame(ctx.PlayFrame)
	f.vpTiles = ctx.Grid.AppendTilesInCap(f.vpTiles[:0], ctx.Predict(ctx.Now), ctx.Viewport.RadiusDeg)
	for _, id := range f.vpTiles {
		if _, ok := ctx.Received.BestPrimary(nowChunk, id); ok {
			continue
		}
		q := abr.QualityForDeadline(func(q video.Quality) int64 {
			return m.TileSize(nowChunk, id, q)
		}, backlog, rate, 300*time.Millisecond, video.Lowest, video.Highest)
		items = append(items, player.RequestItem{Stream: player.Primary, Chunk: nowChunk, Tile: id, Quality: q})
		backlog += m.TileSize(nowChunk, id, q)
	}

	// Planned pass: per future chunk in the look-ahead, fetch the predicted
	// viewport at the best uniform quality the budget allows, plus a
	// lower-quality periphery ring.
	for c, last := nowChunk, ctx.LastChunk(f.opts.Lookahead); c <= last; c++ {
		center := ctx.Predict(ctx.ChunkStart(c))
		f.vpTiles, f.periphery = ctx.Grid.AppendTilesInRing(f.vpTiles[:0], f.periphery[:0],
			center, ctx.Viewport.RadiusDeg, ctx.Viewport.RadiusDeg+peripheryDeg)
		vpTiles, periphery := f.vpTiles, f.periphery

		budget := abr.ChunkBudget(ctx.PredictedMbps, chunkDur)
		qv := abr.MaxQualityFitting(func(q video.Quality) int64 {
			total := int64(0)
			for _, id := range vpTiles {
				total += m.TileSize(c, id, q)
			}
			qp := peripheryQuality(q, peripheryDrop)
			for _, id := range periphery {
				total += m.TileSize(c, id, qp)
			}
			return total
		}, budget, video.Lowest, video.Highest)
		qp := peripheryQuality(qv, peripheryDrop)

		// Viewport tiles sorted by centrality so the most important tiles
		// of each chunk transmit first. The order is total (IDs are
		// distinct), so any sort yields the one permutation.
		keys, u := f.central.keys[:0], center.Unit()
		for _, id := range vpTiles {
			keys = append(keys, centralKey{dist: ctx.Grid.CenterDistance(id, u), id: id})
		}
		f.central.keys = keys
		sort.Sort(&f.central)
		for _, k := range keys {
			items = append(items, player.RequestItem{Stream: player.Primary, Chunk: c, Tile: k.id, Quality: qv})
		}
		for _, id := range periphery {
			items = append(items, player.RequestItem{Stream: player.Primary, Chunk: c, Tile: id, Quality: qp})
		}
	}
	*buf = items
	return items
}

// peripheryQuality lowers the viewport quality by drop levels, floored at
// the lowest encoding.
func peripheryQuality(q video.Quality, drop int) video.Quality {
	p := q - video.Quality(drop)
	if p < video.Lowest {
		p = video.Lowest
	}
	return p
}
