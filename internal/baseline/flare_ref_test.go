package baseline

import (
	"sort"
	"testing"
	"time"

	"dragonfly/internal/abr"
	"dragonfly/internal/geom"
	"dragonfly/internal/player"
	"dragonfly/internal/video"
)

// flareDecideRef is Flare.Decide as it stood before it kept scratch: fresh
// slices and a map per chunk, and a centrality sort that recomputed both
// angular distances inside the comparator. Kept verbatim as the oracle for
// TestFlareDecideMatchesReference.
func flareDecideRef(f *Flare, ctx *player.Context) []player.RequestItem {
	m := ctx.Manifest
	rate := ctx.PredictedMbps * 1e6 / 8
	chunkDur := time.Duration(m.ChunkFrames) * ctx.FrameDuration

	var urgent []player.RequestItem
	var backlog int64
	nowChunk := m.ChunkOfFrame(ctx.PlayFrame)
	currentVP := ctx.Viewport.Tiles(ctx.Grid, ctx.Predict(ctx.Now))
	for _, id := range currentVP {
		if _, ok := ctx.Received.BestPrimary(nowChunk, id); ok {
			continue
		}
		q := abr.QualityForDeadline(func(q video.Quality) int64 {
			return m.TileSize(nowChunk, id, q)
		}, backlog, rate, 300*time.Millisecond, video.Lowest, video.Highest)
		urgent = append(urgent, player.RequestItem{Stream: player.Primary, Chunk: nowChunk, Tile: id, Quality: q})
		backlog += m.TileSize(nowChunk, id, q)
	}

	lastFrame := ctx.PlayFrame + int(f.opts.Lookahead.Seconds()*float64(m.FPS))
	if lastFrame >= m.NumFrames() {
		lastFrame = m.NumFrames() - 1
	}
	items := urgent
	for c := nowChunk; c <= m.ChunkOfFrame(lastFrame); c++ {
		at := ctx.FrameDeadline(m.FirstFrame(c))
		if at < ctx.Now {
			at = ctx.Now
		}
		center := ctx.Predict(at)
		vpTiles := ctx.Viewport.Tiles(ctx.Grid, center)
		outer := ctx.Grid.AppendTilesInCap(nil, center, ctx.Viewport.RadiusDeg+peripheryDeg)
		inVP := make(map[geom.TileID]bool, len(vpTiles))
		for _, id := range vpTiles {
			inVP[id] = true
		}
		var periphery []geom.TileID
		for _, id := range outer {
			if !inVP[id] {
				periphery = append(periphery, id)
			}
		}

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

		sort.Slice(vpTiles, func(a, b int) bool {
			da := geom.AngularDistance(ctx.Grid.Center(vpTiles[a]), center)
			db := geom.AngularDistance(ctx.Grid.Center(vpTiles[b]), center)
			if da != db {
				return da < db
			}
			return vpTiles[a] < vpTiles[b]
		})
		for _, id := range vpTiles {
			items = append(items, player.RequestItem{Stream: player.Primary, Chunk: c, Tile: id, Quality: qv})
		}
		for _, id := range periphery {
			items = append(items, player.RequestItem{Stream: player.Primary, Chunk: c, Tile: id, Quality: qp})
		}
	}
	return items
}

// flareSession is a 12x12 manifest and a context whose predicted head
// sweeps yaw and pitch with time, so successive decisions see different
// viewports, chunk spans and (after record) received sets.
func flareSession(mbps float64) *player.Context {
	m := video.Generate(video.GenParams{ID: "flare", NumChunks: 8, Seed: 5})
	ctx := testContext(m, mbps)
	ctx.Predict = func(at time.Duration) geom.Orientation {
		return geom.Orientation{Yaw: geom.NormalizeYaw(170 + 40*at.Seconds()), Pitch: 60 - 25*at.Seconds()}
	}
	return ctx
}

func TestFlareDecideMatchesReference(t *testing.T) {
	for _, mbps := range []float64{0.3, 4, 25, 400} {
		ctx := flareSession(mbps)
		f := NewFlare(FlareOptions{})
		for step := 0; step < 50; step++ {
			ctx.Now = time.Duration(step) * 100 * time.Millisecond
			ctx.PlayFrame = step * 3
			want := flareDecideRef(f, ctx)
			got := f.Decide(ctx)
			if len(got) != len(want) {
				t.Fatalf("%v Mbps step %d: %d items, reference %d", mbps, step, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v Mbps step %d item %d: %+v, reference %+v", mbps, step, i, got[i], want[i])
				}
			}
			// Deliver the head of the list so the urgent pass sees a
			// changing received set.
			for _, it := range got[:len(got)/8] {
				ctx.Received.Record(it, ctx.Now)
			}
		}
	}
}

// TestFlareDecideAllocationFree pins Flare's steady state at zero
// allocations per decision, like Dragonfly's.
func TestFlareDecideAllocationFree(t *testing.T) {
	ctx := flareSession(8)
	f := NewFlare(FlareOptions{})
	step := 0
	decide := func() {
		ctx.Now = time.Duration(step%40) * 100 * time.Millisecond
		ctx.PlayFrame = (step % 40) * 3
		step++
		f.Decide(ctx)
	}
	for i := 0; i < 40; i++ { // one full sweep sizes every scratch buffer
		decide()
	}
	if n := testing.AllocsPerRun(80, decide); n != 0 {
		t.Errorf("Flare.Decide allocated %v per run in steady state", n)
	}
}
