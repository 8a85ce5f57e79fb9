package player

import (
	"time"

	"dragonfly/internal/geom"
	"dragonfly/internal/quality"
	"dragonfly/internal/video"
)

// delivery logs one completed transfer for the wastage accounting: the
// item and its size, packed into 24 bytes (a RequestItem alone is 40) — the
// log holds every tile a session received, all of every chunk under Pano.
type delivery struct {
	bytes   int64
	chunk   int32
	tile    int32 // unused for a full-360° chunk
	quality uint8
	stream  StreamKind
	full360 bool
}

// accountant performs the per-frame render accounting and final wastage
// computation of §4.1 for a Playback.
type accountant struct {
	M        *Metrics
	Manifest *video.Manifest
	Grid     *geom.Grid
	Metric   quality.Metric

	// interpolate enables the §3.2 future-work optimization: a viewport
	// tile with no renderable version is synthesized from its neighbors'
	// masking tiles (when at least two are available) instead of showing
	// black, at a quality penalty.
	interpolate bool

	// Render usage: which variants were ever shown (drives wastage).
	renderedPrimaryQ []bool // [(chunk*tiles+tile)*Q+q]
	renderedMasking  []bool // [chunk*tiles+tile]

	// scores memoizes quality.TileScore for the whole manifest.
	scores *quality.ScoreTable
}

// newAccountant initializes accounting for one session into met. Its two
// render bitmaps are carved from rendered, which must be renderedLen(m)
// long, and start all false.
func newAccountant(m *video.Manifest, grid *geom.Grid, metric quality.Metric, met *Metrics, rendered []bool) *accountant {
	clear(rendered)
	tiles := m.NumTiles()
	met.SkipHeat = make([]int64, tiles)
	met.BlankHeat = make([]int64, tiles)
	met.ViewHeat = make([]int64, tiles)
	met.FrameScore = make([]float64, 0, m.NumFrames())
	met.FrameBlank = make([]float64, 0, m.NumFrames())
	p := m.NumChunks * tiles * video.NumQualities
	return &accountant{
		M:                met,
		Manifest:         m,
		Grid:             grid,
		Metric:           metric,
		renderedPrimaryQ: rendered[:p:p],
		renderedMasking:  rendered[p:],
		scores:           quality.Scores(m, metric),
	}
}

// renderedLen is the length of the one array an accountant over m carves
// its two render bitmaps from.
func renderedLen(m *video.Manifest) int {
	return m.NumChunks * m.NumTiles() * (video.NumQualities + 1)
}

// renderFrame accounts one rendered viewport: the given chunk seen through
// the viewport's tiles ids, each with its solid-angle weight inside the
// viewport cap (Grid.CapWeights), with availability evaluated at instant
// now.
func (a *accountant) renderFrame(chunk int, ids []geom.TileID, weights []float64, rcv *Received, now time.Duration) {
	tiles := a.Manifest.NumTiles()

	var acc quality.ViewportAccumulator
	totalW, blankW := 0.0, 0.0
	incomplete, primarySkip := false, false
	for i, id := range ids {
		w := weights[i]
		totalW += w
		a.M.ViewHeat[id]++
		ct := chunk*tiles + int(id)
		if q, ok := rcv.bestPrimaryBy(chunk, id, now); ok {
			a.renderedPrimaryQ[ct*video.NumQualities+int(q)] = true
			a.M.RenderedPrimaryByQuality[q]++
			acc.AddMSE(w, a.scores.MSE(chunk, id, q))
			continue
		}
		primarySkip = true
		a.M.SkipHeat[id]++
		if rcv.hasMaskingBy(chunk, id, now) {
			a.renderedMasking[ct] = true
			a.M.RenderedMasking++
			acc.AddMSE(w, a.scores.MSE(chunk, id, video.Lowest))
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
		if rcv.hasMaskingBy(chunk, n, now) {
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
		ct := int(d.chunk)*tiles + int(d.tile)
		switch {
		case d.stream == Primary:
			if a.renderedPrimaryQ[ct*video.NumQualities+int(d.quality)] {
				a.M.BytesUseful += d.bytes
			}
		case d.full360:
			a.M.BytesUseful += maskFullUseful(int(d.chunk))
		default:
			if a.renderedMasking[ct] {
				a.M.BytesUseful += d.bytes
			}
		}
	}
	if a.M.BytesUseful > a.M.BytesReceived {
		a.M.BytesUseful = a.M.BytesReceived
	}
}
