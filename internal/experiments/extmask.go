package experiments

import (
	"io"

	"dragonfly/internal/player"
	"dragonfly/internal/sim"
	"dragonfly/internal/stats"
)

// ExtMaskingOptimizations evaluates the two §3.2 future-work optimizations
// on top of the Fig 19 comparison: utility-scheduled tiled masking, and
// neighbor interpolation of masking holes.
func ExtMaskingOptimizations(env *Env, w io.Writer) (map[string]SchemeSummary, error) {
	run := func(schemes []string, interp bool) (sim.Results, map[string]SchemeSummary, error) {
		return env.sweep("", sim.Sweep{
			Videos:            env.Videos,
			Users:             limit(env.Users, 5),
			Bandwidths:        limit(env.Belgian, 5),
			Schemes:           schemes,
			MaskInterpolation: interp,
		})
	}
	_, base, err := run([]string{"dragonfly-tiled", "dragonfly-tiled-sched"}, false)
	if err != nil {
		return nil, err
	}
	interpRes, interp, err := run([]string{"dragonfly-tiled"}, true)
	if err != nil {
		return nil, err
	}

	out := map[string]SchemeSummary{}
	fprintf(w, "== Extension: §3.2 masking optimizations ==\n")
	fprintf(w, "Paper (future work): schedule masking tiles by utility; interpolate masking holes.\n\n")
	fprintf(w, "%-26s %9s %10s %11s %9s\n", "variant", "medPSNR", "incmpFr%", "sess.incmp", "medWaste")
	printRow := func(label string, s SchemeSummary) {
		s.Name = label
		out[label] = s
		fprintf(w, "%-26s %8.2f  %9.3f  %9.0f%%  %7.1f%%\n",
			label, s.Score.Median, s.MedianIncompletePct, 100*s.SessionsWithIncomplete, s.MedianWastagePct)
	}
	printRow("tiled (chunk order)", base["Dragonfly-Tiled"])
	printRow("tiled + utility sched", base["Dragonfly-TiledSched"])
	printRow("tiled + interpolation", interp["Dragonfly-Tiled"])

	interpolatedTiles := stats.Mean(sim.SessionStat(interpRes["Dragonfly-Tiled"], func(m *player.Metrics) float64 {
		return float64(m.RenderedInterpolated)
	}))
	fprintf(w, "\nInterpolated tile renders per session (mean): %.1f\n", interpolatedTiles)
	return out, nil
}
