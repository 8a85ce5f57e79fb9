package quality

import (
	"math"
	"testing"

	"dragonfly/internal/geom"
	"dragonfly/internal/video"
)

func scoredManifest() *video.Manifest {
	return video.Generate(video.GenParams{ID: "score-table", Rows: 4, Cols: 4, FPS: 5, ChunkFrames: 5, NumChunks: 3, Seed: 11})
}

func TestScoreTableMatchesTileScore(t *testing.T) {
	man := scoredManifest()
	for _, m := range []Metric{PSNR, PSPNR} {
		tbl := NewScoreTable(man, m)
		if tbl.metric != m {
			t.Fatalf("metric %v stored as %v", m, tbl.metric)
		}
		for c := 0; c < man.NumChunks; c++ {
			for tile := 0; tile < man.NumTiles(); tile++ {
				row := tbl.Row(c, geom.TileID(tile))
				for q := 0; q < video.NumQualities; q++ {
					want := TileScore(m, man, c, geom.TileID(tile), video.Quality(q))
					if got := tbl.Score(c, geom.TileID(tile), video.Quality(q)); got != want {
						t.Fatalf("%v chunk %d tile %d q %d: table %v != exact %v", m, c, tile, q, got, want)
					}
					if row[q] != want {
						t.Fatalf("%v chunk %d tile %d q %d: row %v != exact %v", m, c, tile, q, row[q], want)
					}
				}
			}
		}
	}
}

func TestScoresSharedPerManifestAndMetric(t *testing.T) {
	man := scoredManifest()
	if Scores(man, PSNR) != Scores(man, PSNR) {
		t.Error("same (manifest, metric) should share one table")
	}
	if Scores(man, PSNR) == Scores(man, PSPNR) {
		t.Error("different metrics must not share a table")
	}
	if Scores(scoredManifest(), PSNR) == Scores(man, PSNR) {
		t.Error("different manifest instances must not share a table")
	}
}

func TestScoreTableLookupAllocationFree(t *testing.T) {
	man := scoredManifest()
	tbl := Scores(man, PSNR)
	if n := testing.AllocsPerRun(100, func() {
		_ = tbl.Score(1, 3, video.Highest)
		_ = tbl.Row(2, 5)
	}); n != 0 {
		t.Errorf("score lookups allocated %v per run", n)
	}
}

// TestScoreTableMSEBits: the memoized conversion is the conversion — for
// every variant under both metrics MSE(c, t, q) has the bits of
// mseFromPSNR(Score(c, t, q)), so an accumulator fed AddMSE ends where one
// fed Add would.
func TestScoreTableMSEBits(t *testing.T) {
	man := scoredManifest()
	for _, m := range []Metric{PSNR, PSPNR} {
		tbl := NewScoreTable(man, m)
		var memo, plain ViewportAccumulator
		for c := 0; c < man.NumChunks; c++ {
			for tile := 0; tile < man.NumTiles(); tile++ {
				for q := video.Quality(0); q < video.NumQualities; q++ {
					id := geom.TileID(tile)
					got, want := tbl.MSE(c, id, q), mseFromPSNR(tbl.Score(c, id, q))
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%v chunk %d tile %d q %d: MSE %v (%#x), mseFromPSNR(Score) %v (%#x)",
							m, c, tile, q, got, math.Float64bits(got), want, math.Float64bits(want))
					}
					w := float64(tile%7) - 1 // some weights non-positive: both must ignore them
					memo.AddMSE(w, got)
					plain.Add(w, tbl.Score(c, id, q))
				}
			}
		}
		if a, b := memo.PSNR(), plain.PSNR(); math.Float64bits(a) != math.Float64bits(b) || memo.weight == 0 {
			t.Errorf("%v: accumulated through AddMSE %v, through Add %v", m, a, b)
		}
	}
}
