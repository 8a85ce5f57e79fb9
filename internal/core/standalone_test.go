package core

import (
	"time"

	"dragonfly/internal/geom"
	"dragonfly/internal/player"
	"dragonfly/internal/video"
)

// One-shot entry points to the decision path's pieces for the tests:
// Decide reuses per-session scratch for each of them.

// newScheduler prepares a run over the window. baseOffset accounts for
// masking-stream bytes queued ahead of the primary fetches.
func newScheduler(w *window, minQ video.Quality, baseOffset time.Duration) *scheduler {
	s := &scheduler{}
	s.reset(w, minQ, baseOffset)
	return s
}

// buildWindow precomputes deadlines, predictions and candidate scores into
// a fresh window, with masking (when enabled) planned everywhere.
func buildWindow(ctx *player.Context, o Options) *window {
	var tabs sessionTables
	tabs.resolve(ctx, o)
	plan := maskPlan{mode: planAll}
	if o.Masking == MaskNone {
		plan.mode = planNone
	}
	w := &window{}
	w.build(ctx, o, &plan, &tabs)
	return w
}

// planMasking returns the masking fetches still needed for chunks whose
// playback intersects the masking look-ahead, ordered by chunk, plus a
// membership predicate used as the scheduler's skip floor. Decide uses the
// allocation-free appendMasking directly.
func (d *Dragonfly) planMasking(ctx *player.Context) ([]player.RequestItem, func(int, geom.TileID) bool) {
	var s scratch
	items := d.appendMasking(ctx, nil, &s)
	return items, func(chunk int, tile geom.TileID) bool { return s.plan.covered(chunk, tile) }
}

// planMaskingScheduled builds the utility-ordered tiled masking plan.
// Decide uses the allocation-free appendMaskingScheduled directly.
func (d *Dragonfly) planMaskingScheduled(ctx *player.Context) ([]player.RequestItem, func(int, geom.TileID) bool) {
	d.tabs.resolve(ctx, d.opts)
	var s scratch
	items := d.appendMaskingScheduled(ctx, nil, &s)
	return items, func(chunk int, tile geom.TileID) bool { return s.plan.covered(chunk, tile) }
}
