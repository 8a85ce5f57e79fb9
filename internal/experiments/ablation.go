package experiments

import (
	"io"

	"dragonfly/internal/player"
	"dragonfly/internal/sim"
	"dragonfly/internal/stats"
	"dragonfly/internal/video"
)

// Fig12Result holds the ablation-study outcome (§4.4).
type Fig12Result struct {
	Schemes map[string]SchemeSummary
	// MeanBlankArea per scheme (Fig 12b).
	MeanBlankArea map[string]float64
	// Raw keeps the sessions Fig13SkipAnalysis reads.
	Raw sim.Results
}

// Fig12Ablation reproduces Figure 12: Dragonfly against the Table 2
// variants (PassiveSkip, PerChunk, NoMask) on the Belgian traces. The
// paper: Dragonfly median PSNR +4.8 dB vs PerChunk and +1.6 dB vs
// PassiveSkip; NoMask comparable at the median but with an incomplete-
// viewport tail (~10% of viewports) and the lowest wastage.
func Fig12Ablation(env *Env, w io.Writer) (*Fig12Result, error) {
	res, sums, err := env.sweep("fig12", sim.Sweep{
		Videos:     env.Videos,
		Users:      env.Users,
		Bandwidths: env.Belgian,
		Schemes:    []string{"dragonfly", "passiveskip", "perchunk", "nomask"},
	})
	if err != nil {
		return nil, err
	}
	out := &Fig12Result{Schemes: sums, MeanBlankArea: map[string]float64{}, Raw: res}
	for name, sessions := range res {
		out.MeanBlankArea[name] = stats.Mean(sim.SessionStat(sessions,
			func(m *player.Metrics) float64 { return m.MeanBlankArea() }))
	}
	printFig12(w, out)
	return out, nil
}

func printFig12(w io.Writer, r *Fig12Result) {
	fprintf(w, "== Figure 12: ablation study ==\n")
	fprintf(w, "Paper: Dragonfly +4.8 dB vs PerChunk, +1.6 dB vs PassiveSkip (median PSNR);\n")
	fprintf(w, "       NoMask matches the median but ~10%% of its viewports are incomplete;\n")
	fprintf(w, "       NoMask has the lowest wastage (no masking stream).\n\n")
	fprintf(w, "%-12s %9s %9s %9s | %10s %10s | %9s\n",
		"variant", "medPSNR", "p10PSNR", "minPSNR", "incmpFr%", "blankArea", "medWaste")
	for _, name := range sortedNames(r.Schemes) {
		s := r.Schemes[name]
		fprintf(w, "%-12s %8.2f  %8.2f  %8.2f  | %9.2f%% %9.4f%% | %7.1f%%\n",
			s.Name, s.Score.Median, s.Score.P10, s.Score.Min,
			s.MedianIncompletePct, 100*r.MeanBlankArea[name], s.MedianWastagePct)
	}
	printGains(w, r.Schemes, "PassiveSkip", "PerChunk", "NoMask")
}

// Fig13Result holds the proactive-vs-passive skip analysis (§4.4).
type Fig13Result struct {
	// PrimarySkipViewportPct: % of viewports with >= 1 primary-skipped tile
	// (Fig 13a; paper: Dragonfly 39%, PassiveSkip 7%, PerChunk 45.72%).
	PrimarySkipViewportPct map[string]float64
	// Share of rendered viewport tiles by source (Fig 13b; paper: Dragonfly
	// 6.74% masked / 83.4% top quality vs PassiveSkip 2.17% / 53.6%).
	MaskedTileShare  map[string]float64
	TopQualityShare  map[string]float64
	QualityBreakdown map[string][]float64 // per quality level 0..4
}

// Fig13SkipAnalysis derives Figure 13 from the ablation sessions.
func Fig13SkipAnalysis(abl *Fig12Result, w io.Writer) *Fig13Result {
	out := &Fig13Result{
		PrimarySkipViewportPct: map[string]float64{},
		MaskedTileShare:        map[string]float64{},
		TopQualityShare:        map[string]float64{},
		QualityBreakdown:       map[string][]float64{},
	}
	for name, sessions := range abl.Raw {
		var skipFrames, frames float64
		var byQ [video.NumQualities]float64
		var masked, blank, total float64
		for _, s := range sessions {
			skipFrames += float64(s.PrimarySkipFrames)
			frames += float64(s.TotalFrames)
			for q := range byQ {
				byQ[q] += float64(s.RenderedPrimaryByQuality[q])
			}
			masked += float64(s.RenderedMasking)
			blank += float64(s.RenderedBlank)
			total += float64(s.RenderedViewportTiles())
		}
		if frames > 0 {
			out.PrimarySkipViewportPct[name] = 100 * skipFrames / frames
		}
		if total > 0 {
			out.MaskedTileShare[name] = 100 * (masked + blank) / total
			out.TopQualityShare[name] = 100 * byQ[video.Highest] / total
			breakdown := make([]float64, video.NumQualities)
			for q := range byQ {
				breakdown[q] = 100 * byQ[q] / total
			}
			out.QualityBreakdown[name] = breakdown
		}
	}
	fprintf(w, "== Figure 13: proactive vs passive skipping ==\n")
	fprintf(w, "Paper: Dragonfly skips in 39%% of viewports vs PassiveSkip 7%% (PerChunk 45.7%%),\n")
	fprintf(w, "       yet renders 83.4%% of tiles at top quality vs PassiveSkip's 53.6%%\n")
	fprintf(w, "       (masked tiles: 6.74%% vs 2.17%%).\n\n")
	fprintf(w, "%-12s %12s %12s %12s | per-quality shares (low..high)\n",
		"variant", "skipVP%", "maskedTiles%", "topQuality%")
	for _, name := range sortedNames(out.PrimarySkipViewportPct) {
		fprintf(w, "%-12s %11.2f%% %11.2f%% %11.2f%% |", name,
			out.PrimarySkipViewportPct[name], out.MaskedTileShare[name], out.TopQualityShare[name])
		for _, s := range out.QualityBreakdown[name] {
			fprintf(w, " %5.1f%%", s)
		}
		fprintf(w, "\n")
	}
	return out
}
