package core

import (
	"dragonfly/internal/player"
	"dragonfly/internal/video"
)

// This file implements the first future-work optimization of paper §3.2:
// "use the scheduling algorithm in §3.1 to ensure the decision of which
// masking tiles to skip is done carefully based on the utility function."
// With MaskScheduled, the tiled masking stream is no longer fetched in
// plain chunk order: the same greedy utility machinery orders the masking
// fetches (single quality level, so only the ordering and skipping degrees
// of freedom apply) over the masking look-ahead.

// appendMaskingScheduled appends the utility-ordered tiled masking fetches
// to items and records coverage in s.plan, on the masking window and
// scheduler of the scratch (s.mw, s.msched).
func (d *Dragonfly) appendMaskingScheduled(ctx *player.Context, items []player.RequestItem, s *scratch) []player.RequestItem {
	m := ctx.Manifest
	w, plan := &s.mw, &s.plan
	wFrames := int(maskingLookahead.Seconds()*float64(m.FPS) + 0.5)
	if wFrames < 1 {
		wFrames = 1
	}
	lastFrame := m.NumFrames() - 1

	// Coarser frame sampling than the primary window: the masking stream's
	// look-ahead is 3x longer and its tiles are small, so precision matters
	// less than cost here.
	step := d.opts.frameStep * 3
	nSamples := w.prep(ctx, d.opts, &d.tabs, wFrames, step)

	// Candidate masking tiles: per chunk in the window, tiles within the
	// displacement bound of the chunk-start prediction and not yet held.
	// The bound varies continuously per chunk (viewport radius plus that
	// chunk's displacement), so discovery stays on the exact path.
	tiles := m.NumTiles()
	firstChunk := m.ChunkOfFrame(ctx.PlayFrame)
	endFrame := ctx.PlayFrame + wFrames - 1
	if endFrame > lastFrame {
		endFrame = lastFrame
	}
	lastChunk := m.ChunkOfFrame(endFrame)
	plan.resetSet(firstChunk, lastChunk-firstChunk+1, tiles)
	w.candIdx = grow(w.candIdx, (lastChunk-firstChunk+1)*tiles)
	for i := range w.candIdx {
		w.candIdx[i] = -1
	}
	w.slab = w.slab[:0]
	for chunk := firstChunk; chunk <= lastChunk; chunk++ {
		disp := tiledMaskFallbackDeg
		if chunk < len(m.MaskDisplacement) && m.MaskDisplacement[chunk] > 0 {
			disp = m.MaskDisplacement[chunk]
		}
		radius := ctx.Viewport.RadiusDeg + disp
		startWF := m.FirstFrame(chunk) - ctx.PlayFrame
		if startWF < 0 {
			startWF = 0
		}
		if startWF >= wFrames {
			break
		}
		rel := chunk - firstChunk
		w.tileBuf = d.tabs.grid.AppendTilesInCap(w.tileBuf[:0], w.sampleOri[startWF/step], radius)
		for _, id := range w.tileBuf {
			k := rel*tiles + int(id)
			plan.set[k] = true
			if w.candIdx[k] != -1 || ctx.Received.HasMasking(chunk, id) {
				continue
			}
			w.candIdx[k] = int32(len(w.slab))
			w.slab = append(w.slab, candidate{chunk: chunk, tile: id, assigned: -1})
			c := &w.slab[len(w.slab)-1]
			c.qscore[video.Lowest] = d.tabs.scores.Score(chunk, id, video.Lowest)
			c.size[video.Lowest] = m.TileSize(chunk, id, video.Lowest)
		}
	}

	// Location scores over the masking window.
	w.scoreSlab(d.opts, &d.tabs, wFrames, nSamples, step)
	w.cands = w.cands[:0]
	for i := range w.slab {
		if w.slab[i].full > 0 {
			w.cands = append(w.cands, &w.slab[i])
		}
	}
	w.sortCands()
	if len(w.cands) > maxCandidates {
		w.cands = w.cands[:maxCandidates]
	}

	// One quality level: the scheduler's rounds reduce to ordering and
	// skipping, exactly the degrees of freedom §3.2 asks for.
	s.msched.reset(w, video.Lowest, 0)
	s.msched.maxQ = int(video.Lowest)
	list := s.msched.run()

	for _, e := range list {
		items = append(items, player.RequestItem{
			Stream: player.Masking, Chunk: e.c.chunk, Tile: e.c.tile, Quality: video.Lowest,
		})
	}
	return items
}
