package player

import (
	"time"

	"dragonfly/internal/geom"
	"dragonfly/internal/quality"
	"dragonfly/internal/video"
)

// delivery logs one completed transfer for the wastage accounting.
type delivery struct {
	item  RequestItem
	bytes int64
}

// accountant performs the per-frame render accounting and final wastage
// computation of §4.1 for a Playback.
type accountant struct {
	M        *Metrics
	Manifest *video.Manifest
	Grid     *geom.Grid
	Viewport geom.Viewport
	Metric   quality.Metric

	// interpolate enables the §3.2 future-work optimization: a viewport
	// tile with no renderable version is synthesized from its neighbors'
	// masking tiles (when at least two are available) instead of showing
	// black, at a quality penalty.
	interpolate bool

	// Render usage: which variants were ever shown (drives wastage).
	renderedPrimaryQ []bool // [(chunk*tiles+tile)*Q+q]
	renderedMasking  []bool // [chunk*tiles+tile]

	// scores memoizes quality.TileScore for the whole manifest; ids/weights
	// are the per-frame cap-weight scratch reused across RenderFrame calls.
	scores  *quality.ScoreTable
	ids     []geom.TileID
	weights []float64
}

// newAccountant initializes accounting for one session into met.
func newAccountant(m *video.Manifest, grid *geom.Grid, vp geom.Viewport, metric quality.Metric, met *Metrics) *accountant {
	tiles := m.NumTiles()
	met.SkipHeat = make([]int64, tiles)
	met.BlankHeat = make([]int64, tiles)
	met.ViewHeat = make([]int64, tiles)
	return &accountant{
		M:                met,
		Manifest:         m,
		Grid:             grid,
		Viewport:         vp,
		Metric:           metric,
		renderedPrimaryQ: make([]bool, m.NumChunks*tiles*video.NumQualities),
		renderedMasking:  make([]bool, m.NumChunks*tiles),
		scores:           quality.Scores(m, metric),
	}
}

// renderFrame accounts one rendered viewport: the given chunk viewed from
// orientation o, with availability evaluated at instant now.
func (a *accountant) renderFrame(chunk int, o geom.Orientation, rcv *Received, now time.Duration) {
	a.ids, a.weights = a.Grid.AppendCapWeights(a.ids[:0], a.weights[:0], o, a.Viewport.RadiusDeg)
	ids, weights := a.ids, a.weights
	tiles := a.Manifest.NumTiles()

	var acc quality.ViewportAccumulator
	totalW, blankW := 0.0, 0.0
	incomplete, primarySkip := false, false
	for i, id := range ids {
		w := weights[i]
		totalW += w
		a.M.ViewHeat[id]++
		ct := chunk*tiles + int(id)
		if q, ok := rcv.BestPrimaryBy(chunk, id, now); ok {
			a.renderedPrimaryQ[ct*video.NumQualities+int(q)] = true
			a.M.RenderedPrimaryByQuality[q]++
			acc.Add(w, a.scores.Score(chunk, id, q))
			continue
		}
		primarySkip = true
		a.M.SkipHeat[id]++
		if rcv.HasMaskingBy(chunk, id, now) {
			a.renderedMasking[ct] = true
			a.M.RenderedMasking++
			acc.Add(w, a.scores.Score(chunk, id, video.Lowest))
			continue
		}
		if a.interpolate {
			if db, ok := a.interpolated(chunk, id, rcv, now); ok {
				a.M.RenderedInterpolated++
				acc.Add(w, db)
				continue
			}
		}
		a.M.RenderedBlank++
		a.M.BlankHeat[id]++
		incomplete = true
		blankW += w
		acc.Add(w, a.Manifest.BlackPSNR(chunk, id))
	}
	a.M.FrameScore = append(a.M.FrameScore, acc.PSNR())
	if totalW > 0 {
		a.M.FrameBlank = append(a.M.FrameBlank, blankW/totalW)
	} else {
		a.M.FrameBlank = append(a.M.FrameBlank, 0)
	}
	if incomplete {
		a.M.IncompleteFrames++
	}
	if primarySkip {
		a.M.PrimarySkipFrames++
	}
	a.M.TotalFrames++
}

// interpolationPenaltyDB is the quality loss of synthesizing a tile from
// its neighbors' masking versions relative to having the masking tile
// itself: interpolation blurs detail and misaligns edges.
const interpolationPenaltyDB = 6

// interpolated attempts the neighbor-interpolation mask of §3.2: with at
// least two 4-neighbors holding a renderable masking version, the hole is
// synthesized at the neighbors' mean masking quality minus a fixed penalty
// (never below the black-render floor). The contributing neighbors' masking
// deliveries count as rendered for the wastage accounting.
func (a *accountant) interpolated(chunk int, id geom.TileID, rcv *Received, now time.Duration) (float64, bool) {
	tiles := a.Manifest.NumTiles()
	var sum float64
	var contributors []geom.TileID
	for _, n := range a.Grid.Neighbors4(id) {
		if rcv.HasMaskingBy(chunk, n, now) {
			sum += a.scores.Score(chunk, n, video.Lowest)
			contributors = append(contributors, n)
		}
	}
	if len(contributors) < 2 {
		return 0, false
	}
	for _, n := range contributors {
		a.renderedMasking[chunk*tiles+int(n)] = true
	}
	db := sum/float64(len(contributors)) - interpolationPenaltyDB
	if floor := a.Manifest.BlackPSNR(chunk, id); db < floor {
		db = floor
	}
	return db, true
}

// finishWastage computes the useful-bytes accounting (§4.1) from the
// delivery log: primary tiles are useful if rendered at exactly the
// delivered quality; tiled masking if rendered from masking; a full-360°
// masking chunk earns the cheaper of the tiled-equivalent encoding of its
// rendered area or the whole chunk.
func (a *accountant) finishWastage(deliveries []delivery) {
	tiles := a.Manifest.NumTiles()
	maskFullUseful := func(chunk int) int64 {
		var tiled int64
		for t := 0; t < tiles; t++ {
			if a.renderedMasking[chunk*tiles+t] {
				tiled += a.Manifest.TileSize(chunk, geom.TileID(t), video.Lowest)
			}
		}
		full := a.Manifest.Full360Size(chunk, video.Lowest)
		if tiled < full {
			return tiled
		}
		return full
	}
	for _, d := range deliveries {
		switch {
		case d.item.Stream == Primary:
			ct := d.item.Chunk*tiles + int(d.item.Tile)
			if a.renderedPrimaryQ[ct*video.NumQualities+int(d.item.Quality)] {
				a.M.BytesUseful += d.bytes
			}
		case d.item.Full360:
			a.M.BytesUseful += maskFullUseful(d.item.Chunk)
		default:
			if a.renderedMasking[d.item.Chunk*tiles+int(d.item.Tile)] {
				a.M.BytesUseful += d.bytes
			}
		}
	}
	if a.M.BytesUseful > a.M.BytesReceived {
		a.M.BytesUseful = a.M.BytesReceived
	}
}
