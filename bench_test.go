// Benchmarks regenerating each of the paper's evaluation artifacts at a
// reduced (SmallEnv) scale, so `go test -bench=. -benchmem` sweeps every
// table and figure. The paper-scale runs live behind
// `go run ./cmd/experiment -run all -scale full`; EXPERIMENTS.md records
// their output.
package dragonfly_test

import (
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"dragonfly/internal/experiments"
)

var (
	benchEnvOnce sync.Once
	benchEnvVal  *experiments.Env
)

func benchEnv() *experiments.Env {
	benchEnvOnce.Do(func() { benchEnvVal = experiments.SmallEnv() })
	return benchEnvVal
}

// runExperiment benches one registry entry end to end. An untimed first
// run builds the process-wide tables the experiment reads (the score
// tables of its metric, the overlap plane of each RoI set), so the timed
// runs, and their allocs/op, do not depend on which benchmarks ran before
// in the process and built some of them already.
//
// The collector is off from that first run to the end of the timed ones:
// a collection empties the sync.Pools the sessions draw their scratch from
// (internal/core's and internal/player's), and one landing at a
// run-dependent point spread allocs/op by 5-7 % between runs of one
// binary. Two collections before it empty the pools, so every run starts
// from the same state. An experiment allocates at most ~14 MB per op; the
// memory limit collects anyway should a long -benchtime near it.
func runExperiment(b *testing.B, id string, studyUsers int) {
	b.Helper()
	exp, ok := experiments.Find(id, studyUsers)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	env := benchEnv()
	run := func() {
		if err := exp.Run(env, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(1 << 30))
	run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// Figure 2: viewport-prediction accuracy vs window.
func BenchmarkFig2PredictionAccuracy(b *testing.B) { runExperiment(b, "fig2", 4) }

// Figure 5: head movement during stalls.
func BenchmarkFig5YawDuringStalls(b *testing.B) { runExperiment(b, "fig5", 4) }

// Table 1: scheme design matrix.
func BenchmarkTable1SchemeMatrix(b *testing.B) { runExperiment(b, "table1", 4) }

// Figure 9(a-c): the main comparison (PSNR, rebuffering/incomplete frames,
// wastage) plus the 1-second look-ahead variants.
func BenchmarkFig9MainComparison(b *testing.B) { runExperiment(b, "fig9", 4) }

// Figure 10: PSPNR-optimizing variants.
func BenchmarkFig10PSPNR(b *testing.B) { runExperiment(b, "fig10", 4) }

// Figure 11: Irish 5G trace sensitivity.
func BenchmarkFig11Irish(b *testing.B) { runExperiment(b, "fig11", 4) }

// Table 2: ablation variant matrix.
func BenchmarkTable2VariantMatrix(b *testing.B) { runExperiment(b, "table2", 4) }

// Figures 12 and 13: ablation study and proactive-vs-passive skip analysis.
func BenchmarkFig12Fig13Ablation(b *testing.B) { runExperiment(b, "fig12", 4) }

// Figures 14-17: the user-study simulation (ratings, skip heat map,
// displacement, qualitative feedback).
func BenchmarkFig14to17UserStudy(b *testing.B) { runExperiment(b, "fig14-17", 4) }

// Figure 18: per-tile quality sensitivity.
func BenchmarkFig18QualitySensitivity(b *testing.B) { runExperiment(b, "fig18", 4) }

// Figure 19: full-360° vs tiled masking strategies.
func BenchmarkFig19MaskingStrategies(b *testing.B) { runExperiment(b, "fig19", 4) }

// Figure 20: fixed vs variable tiling encoding overhead.
func BenchmarkFig20TilingOverhead(b *testing.B) { runExperiment(b, "fig20", 4) }

// Figures 21-23: sensitivity to injected motion-prediction error.
func BenchmarkFig21to23ErrorSensitivity(b *testing.B) { runExperiment(b, "fig21-23", 4) }

// Table 3 / Figure 24: video bitrate calibration.
func BenchmarkTable3VideoBitrates(b *testing.B) { runExperiment(b, "table3", 4) }

// Appendix: the "why 12x12 tiling" sweep.
func BenchmarkTilingSweep(b *testing.B) { runExperiment(b, "tiling", 4) }

// Extensions beyond the paper.
func BenchmarkExtPredictorMethods(b *testing.B)     { runExperiment(b, "ext-predictor", 4) }
func BenchmarkExtDecisionInterval(b *testing.B)     { runExperiment(b, "ext-interval", 4) }
func BenchmarkExtDecodeStage(b *testing.B)          { runExperiment(b, "ext-decode", 4) }
func BenchmarkExtRoIGeometry(b *testing.B)          { runExperiment(b, "ext-roi", 4) }
func BenchmarkExtMaskingOptimizations(b *testing.B) { runExperiment(b, "ext-masking", 4) }
