package core

import (
	"sort"
	"time"

	"dragonfly/internal/geom"
	"dragonfly/internal/player"
	"dragonfly/internal/quality"
	"dragonfly/internal/video"
)

// window holds everything the scheduler needs about the current look-ahead
// period: per-frame deadlines and predicted orientations, and the candidate
// tiles with their precomputed cumulative location scores (§3.1).
//
// A window doubles as a reusable scratch arena: Decide runs every 100 ms
// for the whole session, so all per-build slices (candidate slab, sampled
// orientations, score buffers) are retained and reused across builds — and,
// through the pooled scratch a window lives in, across sessions. After the
// first few decisions the build allocates nothing (TestDecideAllocationFree
// pins this).
type window struct {
	t0        time.Duration
	numFrames int
	deadlines []time.Duration // deadline of window frame wf (uniformly spaced)
	frameDur  time.Duration
	rate      float64 // predicted bytes/second

	cands []*candidate // into slab; valid until the next build

	// Reusable build scratch.
	slab       []candidate        // backing store of cands
	candIdx    []int32            // [(chunk-firstChunk)*tiles + tile] -> slab index, -1 empty, -2 rejected
	sampleOri  []geom.Orientation // predicted orientation of sample s
	queries    []geom.CapQuery    // exact path: [s*nRoI + r]
	lookups    []geom.PlaneLookup // table path: [s]
	frameChunk []int32            // chunk of window frame wf, -1 past the video
	tileBuf    []geom.TileID      // per-sample cap-tile discovery buffer
	sampleSc   []float64          // per-sample location score of one candidate
	cumLBuf    []float64          // backing store of every candidate's cumL
	sorter     fullSorter
}

// candidate is one (chunk, tile) the scheduler may fetch in the primary
// stream during this window.
type candidate struct {
	// The scheduler's inner loops read cumL, floor, maskScore and qscore of
	// every listed entry per insertion attempt; they lead the struct so
	// that is two cache lines, not four.

	// cumL[wf] is L_it: the total location score accrued if the tile is
	// displayable from window frame wf onward (suffix sum of per-frame
	// location scores, zero outside the tile's chunk). It has one element
	// per window frame and a final zero: "after the window" earns nothing.
	cumL []float64
	// floor is the utility of skipping the tile (full × maskScore);
	// scheduler.reset fills it.
	floor float64
	// maskScore is the quality score shown when the tile is skipped: the
	// masking encoding if a masking stream exists (or already arrived),
	// otherwise 0 (§3.1 "utility may be non-zero even if the tile is
	// skipped").
	maskScore float64
	qscore    [video.NumQualities]float64

	chunk int
	tile  geom.TileID

	// full is the cumulative score when the tile arrives before it is first
	// needed (the maximum of cumL).
	full float64

	size [video.NumQualities]int64
	// xfer[q] is the time the quality-q encoding takes at the window's
	// rate; scheduler.reset fills it.
	xfer [video.NumQualities]time.Duration

	// assigned is the scheduler's current quality for the tile; -1 = skip.
	assigned int
	// inList marks membership in the scheduler's current fetch list, and
	// slot is then the tile's index in it (kept by repair).
	inList bool
	slot   int
	// sortKey is the scheduler's precomputed round sort key.
	sortKey float64
}

// byteRate converts a predicted throughput in Mbit/s to the bytes per
// second the scheduler plans with, floored at 1 B/s. The floor is written
// so that NaN takes it too: NaN would otherwise reach time.Duration, whose
// conversion of NaN is implementation-defined (on amd64 every transfer
// became instant). +Inf passes: everything fits.
func byteRate(mbps float64) float64 {
	rate := mbps * 1e6 / 8
	if !(rate >= 1) {
		return 1
	}
	return rate
}

// grow returns s resized to n, reusing capacity. Contents are undefined.
// A buffer that must grow takes a quarter more than asked: candidate counts
// creep up over a session, and an exact fit would re-allocate the score
// slab at every new maximum.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/4)
	}
	return s[:n]
}

// prep sizes the window for a look-ahead of wFrames frames sampled every
// `step` frames: per-frame deadlines and chunk membership, and the
// predicted orientation per sampled frame (held for `step` frames) with
// the RoI overlap machinery hoisted per sample — one lookup of the RoI
// set's plane when the session has overlap tables, precomputed cap queries
// otherwise. Returns the number of samples.
func (w *window) prep(ctx *player.Context, o Options, tabs *sessionTables, wFrames, step int) int {
	m := ctx.Manifest
	lastFrame := m.NumFrames() - 1
	w.t0 = ctx.Now
	w.numFrames = wFrames
	w.frameDur = ctx.FrameDuration
	w.rate = byteRate(ctx.PredictedMbps)
	if w.frameDur <= 0 {
		w.frameDur = time.Second / time.Duration(m.FPS)
	}

	w.deadlines = grow(w.deadlines, wFrames)
	w.frameChunk = grow(w.frameChunk, wFrames)
	for wf := 0; wf < wFrames; wf++ {
		frame := ctx.PlayFrame + wf
		w.deadlines[wf] = ctx.FrameDeadline(frame)
		if frame > lastFrame {
			w.frameChunk[wf] = -1
		} else {
			w.frameChunk[wf] = int32(m.ChunkOfFrame(frame))
		}
	}

	nRoI := len(o.RoIs.RadiiDeg)
	nSamples := (wFrames + step - 1) / step
	w.sampleOri = grow(w.sampleOri, nSamples)
	if tabs.plane != nil {
		w.lookups = grow(w.lookups, nSamples)
	} else {
		w.queries = grow(w.queries, nSamples*nRoI)
	}
	for s := 0; s < nSamples; s++ {
		ori := ctx.Predict(w.deadlines[s*step])
		w.sampleOri[s] = ori
		if tabs.plane != nil {
			w.lookups[s] = tabs.plane.Lookup(ori)
		} else {
			for r, rad := range o.RoIs.RadiiDeg {
				w.queries[s*nRoI+r] = geom.NewCapQuery(ori, rad)
			}
		}
	}
	return nSamples
}

// scoreSlab computes every slab candidate's per-frame location scores and
// suffix-sums them into cumL (backed by the shared cumLBuf): l_if at each
// sampled orientation, held for `step` frames. A tile scores only over its
// own chunk's frames, one contiguous run [lo, hi) of the window, so only
// the samples that run touches are evaluated: cumL is zero from hi up
// (cumL[wFrames] = 0 is the sentinel utilityFrom leans on), the running sum
// inside the run and cumL[lo] below it — what adding 0.0 for every frame
// outside the chunk would leave, bit for bit.
func (w *window) scoreSlab(o Options, tabs *sessionTables, wFrames, nSamples, step int) {
	nRoI := len(o.RoIs.RadiiDeg)
	w.sampleSc = grow(w.sampleSc, nSamples)
	w.cumLBuf = grow(w.cumLBuf, len(w.slab)*(wFrames+1))
	lo, hi, runChunk := 0, 0, -1
	for i := range w.slab {
		c := &w.slab[i]
		if c.chunk != runChunk {
			lo, hi = w.chunkRun(c.chunk)
			runChunk = c.chunk
		}
		cumL := w.cumLBuf[i*(wFrames+1) : (i+1)*(wFrames+1)]
		c.cumL = cumL
		for wf := hi; wf <= wFrames; wf++ {
			cumL[wf] = 0
		}
		sLo, sHi := 0, 0 // samples the run touches; none when it is empty
		if lo < hi {
			sLo, sHi = lo/step, (hi-1)/step+1
		}
		if tabs.plane != nil {
			row, col := tabs.grid.RowCol(c.tile)
			for s := sLo; s < sHi; s++ {
				w.sampleSc[s] = w.lookups[s].OverlapAt(row, col)
			}
		} else {
			for s := sLo; s < sHi; s++ {
				w.sampleSc[s] = o.RoIs.LocationScoreQ(tabs.grid, c.tile, w.queries[s*nRoI:(s+1)*nRoI])
			}
		}
		acc := 0.0
		for wf := hi - 1; wf >= lo; wf-- {
			acc += w.sampleSc[wf/step]
			cumL[wf] = acc
		}
		for wf := 0; wf < lo; wf++ {
			cumL[wf] = acc
		}
		c.full = acc
	}
}

// chunkRun returns the window frames [lo, hi) that belong to chunk; frames
// of one chunk are contiguous. lo == hi when the chunk has none.
func (w *window) chunkRun(chunk int) (lo, hi int) {
	for lo < len(w.frameChunk) && w.frameChunk[lo] != int32(chunk) {
		lo++
	}
	hi = lo
	for hi < len(w.frameChunk) && w.frameChunk[hi] == int32(chunk) {
		hi++
	}
	return lo, hi
}

// build fills the window for the current decision, reusing every scratch
// buffer from the previous build.
func (w *window) build(ctx *player.Context, o Options, plan *maskPlan, tabs *sessionTables) {
	m := ctx.Manifest
	wFrames := int(primaryLookahead.Seconds()*float64(m.FPS) + 0.5)
	if wFrames < 1 {
		wFrames = 1
	}
	lastFrame := m.NumFrames() - 1
	step := o.frameStep
	nSamples := w.prep(ctx, o, tabs, wFrames, step)
	useTable := tabs.plane != nil

	// Candidate set: tiles within the outermost RoI of any sampled frame,
	// deduplicated per (chunk, tile) through the flat candIdx map. On the
	// table path they are the RoI plane's non-zero tiles: the caps share one
	// center vector and their radii increase, so every tile an inner cap
	// touches the outermost one touches too.
	tiles := m.NumTiles()
	firstChunk := m.ChunkOfFrame(ctx.PlayFrame)
	endFrame := ctx.PlayFrame + wFrames - 1
	if endFrame > lastFrame {
		endFrame = lastFrame
	}
	span := m.ChunkOfFrame(endFrame) - firstChunk + 1
	w.candIdx = grow(w.candIdx, span*tiles)
	for i := range w.candIdx {
		w.candIdx[i] = -1
	}
	w.slab = w.slab[:0]
	outer := o.RoIs.MaxRadius()
	for s := 0; s < nSamples; s++ {
		frame := ctx.PlayFrame + s*step
		if frame > lastFrame {
			break
		}
		chunk := m.ChunkOfFrame(frame)
		rel := chunk - firstChunk
		if useTable {
			w.tileBuf = w.lookups[s].AppendTiles(w.tileBuf[:0])
		} else {
			w.tileBuf = tabs.grid.AppendTilesInCap(w.tileBuf[:0], w.sampleOri[s], outer)
		}
		for _, id := range w.tileBuf {
			k := rel*tiles + int(id)
			if w.candIdx[k] != -1 {
				continue
			}
			// Tiles already sent on the primary stream cannot be upgraded
			// (the server never re-sends primary tiles, §3.3), so they are
			// not candidates.
			if _, ok := ctx.Received.BestPrimary(chunk, id); ok {
				w.candIdx[k] = -2
				continue
			}
			w.candIdx[k] = int32(len(w.slab))
			w.slab = append(w.slab, candidate{chunk: chunk, tile: id, assigned: -1})
			c := &w.slab[len(w.slab)-1]
			copy(c.qscore[:], tabs.scores.Row(chunk, id))
			for q := video.Quality(0); q < video.NumQualities; q++ {
				c.size[q] = m.TileSize(chunk, id, q)
			}
			// The skip floor: a masking version will cover the tile if one
			// has arrived or is planned for this window.
			if ctx.Received.HasMasking(chunk, id) || plan.covered(chunk, id) {
				c.maskScore = c.qscore[video.Lowest]
			}
		}
	}

	w.scoreSlab(o, tabs, wFrames, nSamples, step)

	// Keep only tiles that matter, bounded for tractability: tiles whose
	// cumulative score is a sliver of the best candidate's cannot earn
	// meaningful utility but would still cost a full O(C) round each.
	maxFull := 0.0
	for i := range w.slab {
		if w.slab[i].full > maxFull {
			maxFull = w.slab[i].full
		}
	}
	w.cands = w.cands[:0]
	for i := range w.slab {
		if w.slab[i].full > 0.03*maxFull {
			w.cands = append(w.cands, &w.slab[i])
		}
	}
	w.sortCands()
	if len(w.cands) > maxCandidates {
		w.cands = w.cands[:maxCandidates]
	}
}

// sortCands orders candidates by cumulative score (descending), with
// (chunk, tile) tiebreaks for determinism.
func (w *window) sortCands() {
	w.sorter.c = w.cands
	sort.Sort(&w.sorter)
	w.sorter.c = nil
}

// fullSorter sorts candidates for sortCands. A named type (passed by
// pointer from a heap-resident window) keeps sort.Sort allocation-free,
// unlike sort.Slice closures.
type fullSorter struct{ c []*candidate }

func (s *fullSorter) Len() int      { return len(s.c) }
func (s *fullSorter) Swap(i, j int) { s.c[i], s.c[j] = s.c[j], s.c[i] }
func (s *fullSorter) Less(i, j int) bool {
	a, b := s.c[i], s.c[j]
	if a.full != b.full {
		return a.full > b.full
	}
	if a.chunk != b.chunk {
		return a.chunk < b.chunk
	}
	return a.tile < b.tile
}

// sessionTables holds the per-session resolution of the process-wide
// read-only tables: the shared overlap plane of the RoI set (nil when
// Options.ExactGeometry re-samples the sphere instead) and the memoized
// quality scores. Resolution is guarded by pointer comparison so Decide
// pays it only when the manifest changes.
type sessionTables struct {
	grid   *geom.Grid
	man    *video.Manifest
	metric quality.Metric
	plane  *geom.CapPlane // the RoI set's location scores; nil => exact path
	scores *quality.ScoreTable
}

func (t *sessionTables) resolve(ctx *player.Context, o Options) {
	if t.grid == ctx.Grid && t.man == ctx.Manifest && t.metric == o.Metric && t.scores != nil {
		return
	}
	t.grid = ctx.Grid
	t.man = ctx.Manifest
	t.metric = o.Metric
	t.scores = quality.Scores(ctx.Manifest, o.Metric)
	if o.ExactGeometry {
		t.plane = nil
	} else {
		t.plane = geom.SharedTable(ctx.Grid, geom.TableParams{}).RoIPlane(o.RoIs)
	}
}

// arrivalFrame maps an arrival instant to the first window frame that can
// display the tile; numFrames means "after the window" (no benefit).
// Deadlines are uniformly frameDur apart, so the index is direct
// arithmetic, corrected for rounding at the boundary by a walk either way.
func (w *window) arrivalFrame(at time.Duration) int {
	if at <= w.deadlines[0] {
		return 0
	}
	wf := int((at - w.deadlines[0] + w.frameDur - 1) / w.frameDur)
	if wf > w.numFrames {
		wf = w.numFrames
	}
	return frameUp(w.deadlines, at, frameDown(w.deadlines, at, wf))
}

// frameDown and frameUp are arrivalFrame by a walk from a guess instead of
// a division: the first frame whose deadline is not before at. Deadlines
// never decrease, so walking down and then up finds it from any guess; the
// scheduler's inner loops pass the neighbouring entry's frame, a step or
// two away, and know which side of the answer it lies on, so each calls
// only the half that can move. frameDown walks from a guess at or past the
// answer.
func frameDown(deadlines []time.Duration, at time.Duration, wf int) int {
	for wf > 0 && deadlines[wf-1] >= at {
		wf--
	}
	return wf
}

// frameUp walks from a guess at or before the answer.
func frameUp(deadlines []time.Duration, at time.Duration, wf int) int {
	for wf < len(deadlines) && deadlines[wf] < at {
		wf++
	}
	return wf
}

// utilityFrom returns the total utility of candidate c fetched at quality q
// and displayable from window frame wf on: masking covers the frames before
// it, the fetched quality the rest. wf may be numFrames ("after the
// window"): cumL ends in a zero there, so the sum is the floor.
func (c *candidate) utilityFrom(q, wf int) float64 {
	return c.floor + c.marginalFrom(q, wf)
}

// marginalFrom returns only the gain over the skip floor (used for the
// zero-utility demote/drop rule of Algorithm 1).
func (c *candidate) marginalFrom(q, wf int) float64 {
	return c.cumL[wf] * (c.qscore[q] - c.maskScore)
}
