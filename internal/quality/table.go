package quality

import (
	"sync"

	"dragonfly/internal/geom"
	"dragonfly/internal/video"
)

// ScoreTable memoizes TileScore for one (manifest, metric) pair into a flat
// [chunk][tile][quality] array. The manifest's accessor path re-validates
// indices and branches on the metric on every call; the scheduler evaluates
// tile scores thousands of times per decision, so the flat copy keeps the
// hot path to a single bounds-checked load. Beside each score it keeps
// mseFromPSNR of it, which the per-frame viewport accounting would
// otherwise recompute (a math.Pow) per tile per frame. Immutable after
// build.
type ScoreTable struct {
	metric Metric
	tiles  int
	scores []float64 // [(chunk*tiles+tile)*NumQualities + q]
	mse    []float64 // mseFromPSNR(scores[i])
}

// NewScoreTable builds the table by evaluating TileScore for every
// (chunk, tile, quality) variant of the manifest.
func NewScoreTable(man *video.Manifest, metric Metric) *ScoreTable {
	tiles := man.NumTiles()
	t := &ScoreTable{
		metric: metric,
		tiles:  tiles,
		scores: make([]float64, man.NumChunks*tiles*video.NumQualities),
		mse:    make([]float64, man.NumChunks*tiles*video.NumQualities),
	}
	i := 0
	for c := 0; c < man.NumChunks; c++ {
		for tile := 0; tile < tiles; tile++ {
			for q := 0; q < video.NumQualities; q++ {
				t.scores[i] = TileScore(metric, man, c, geom.TileID(tile), video.Quality(q))
				t.mse[i] = mseFromPSNR(t.scores[i])
				i++
			}
		}
	}
	return t
}

// Score returns the memoized TileScore of the variant.
func (t *ScoreTable) Score(chunk int, tile geom.TileID, q video.Quality) float64 {
	return t.scores[(chunk*t.tiles+int(tile))*video.NumQualities+int(q)]
}

// MSE returns mseFromPSNR(Score(chunk, tile, q)), memoized.
func (t *ScoreTable) MSE(chunk int, tile geom.TileID, q video.Quality) float64 {
	return t.mse[(chunk*t.tiles+int(tile))*video.NumQualities+int(q)]
}

// Row returns the per-quality scores of one (chunk, tile), ascending by
// quality level. The slice aliases the table; callers must not modify it.
func (t *ScoreTable) Row(chunk int, tile geom.TileID) []float64 {
	base := (chunk*t.tiles + int(tile)) * video.NumQualities
	return t.scores[base : base+video.NumQualities]
}

// scoreKey identifies a shared score table. Manifests are compared by
// pointer: they are built once per sweep and shared across sessions.
type scoreKey struct {
	man    *video.Manifest
	metric Metric
}

type scoreHolder struct {
	once  sync.Once
	table *ScoreTable
}

var sharedScores sync.Map // scoreKey -> *scoreHolder

// Scores returns the process-wide score table for the manifest and metric,
// building it once on first use. Concurrent callers block until the single
// build completes rather than racing to build duplicates.
func Scores(man *video.Manifest, metric Metric) *ScoreTable {
	key := scoreKey{man: man, metric: metric}
	h, ok := sharedScores.Load(key)
	if !ok {
		h, _ = sharedScores.LoadOrStore(key, &scoreHolder{})
	}
	holder := h.(*scoreHolder)
	holder.once.Do(func() { holder.table = NewScoreTable(man, metric) })
	return holder.table
}
