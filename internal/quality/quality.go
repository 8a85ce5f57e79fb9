// Package quality implements the objective quality metrics of the paper's
// evaluation (§4.1): PSNR and PSPNR, their MSE-domain aggregation across a
// viewport, and the selection between them that lets every scheme optimize
// either metric (§4.3 "Alternate quality metric: PSPNR").
package quality

import (
	"math"

	"dragonfly/internal/geom"
	"dragonfly/internal/video"
)

// maxPixel is the peak pixel value for 8-bit video.
const maxPixel = 255.0

// mseFromPSNR converts a PSNR in dB to mean squared error.
func mseFromPSNR(db float64) float64 {
	return maxPixel * maxPixel * math.Pow(10, -db/10)
}

// psnrFromMSE converts mean squared error to PSNR in dB. Zero or negative
// MSE (a perfect reconstruction) saturates at 60 dB, matching the cap used
// when generating manifests.
func psnrFromMSE(mse float64) float64 {
	if mse <= 0 {
		return 60
	}
	return 10 * math.Log10(maxPixel*maxPixel/mse)
}

// Metric selects which per-tile quality score drives scheduling and
// evaluation.
type Metric int

// The two metrics used in the paper's experiments.
const (
	PSNR Metric = iota
	PSPNR
)

// String implements fmt.Stringer.
func (m Metric) String() string {
	if m == PSPNR {
		return "PSPNR"
	}
	return "PSNR"
}

// TileScore returns the manifest's quality score (dB) for a tile variant
// under the selected metric.
func TileScore(m Metric, man *video.Manifest, chunk int, tile geom.TileID, q video.Quality) float64 {
	if m == PSPNR {
		return man.TilePSPNR(chunk, tile, q)
	}
	return man.TilePSNR(chunk, tile, q)
}

// ViewportAccumulator aggregates per-tile quality scores into one viewport
// score by averaging in the MSE domain, weighted by each tile's share of
// the viewport's solid angle. dB values must not be averaged directly:
// PSNR is logarithmic.
type ViewportAccumulator struct {
	weightedMSE float64
	weight      float64
}

// Add records one tile covering `weight` of the viewport with the given
// quality score in dB. Non-positive weights are ignored.
func (a *ViewportAccumulator) Add(weight, db float64) {
	a.AddMSE(weight, mseFromPSNR(db))
}

// AddMSE is Add for a score already converted with mseFromPSNR (a
// ScoreTable keeps the conversion of every variant beside its score).
func (a *ViewportAccumulator) AddMSE(weight, mse float64) {
	if weight <= 0 {
		return
	}
	a.weightedMSE += weight * mse
	a.weight += weight
}

// PSNR returns the aggregate viewport score in dB, or 0 if nothing was
// added (an entirely absent viewport is accounted by the caller via the
// black-tile penalty instead).
func (a *ViewportAccumulator) PSNR() float64 {
	if a.weight == 0 {
		return 0
	}
	return psnrFromMSE(a.weightedMSE / a.weight)
}
