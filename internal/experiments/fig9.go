package experiments

import (
	"io"

	"dragonfly/internal/player"
	"dragonfly/internal/sim"
	"dragonfly/internal/stats"
)

// SchemeSummary condenses one scheme's sessions into the Fig 9 statistics.
type SchemeSummary struct {
	Name string

	// Score is the distribution of per-frame viewport quality pooled over
	// all sessions (Fig 9a's CDF).
	Score stats.Summary

	// MedianRebufferPct / P90RebufferPct summarize per-session rebuffering
	// ratios; MedianIncompletePct the per-session incomplete-frame
	// percentage (Fig 9b).
	MedianRebufferPct      float64
	P90RebufferPct         float64
	SessionsWithRebuf      float64 // fraction of sessions with >= 1 stall
	MedianIncompletePct    float64
	SessionsWithIncomplete float64

	// MedianWastagePct is the per-session bandwidth wastage (Fig 9c).
	MedianWastagePct float64

	Sessions int
}

// summarize computes a SchemeSummary from session metrics.
func summarize(name string, sessions []*player.Metrics) SchemeSummary {
	rebuf := sim.SessionStat(sessions, func(m *player.Metrics) float64 { return 100 * m.RebufferRatio() })
	incomplete := sim.SessionStat(sessions, func(m *player.Metrics) float64 { return m.IncompleteFramePct() })
	waste := sim.SessionStat(sessions, func(m *player.Metrics) float64 { return m.WastagePct() })
	return SchemeSummary{
		Name:                   name,
		Score:                  stats.Summarize(sim.PooledFrameScores(sessions)),
		MedianRebufferPct:      stats.Median(rebuf),
		P90RebufferPct:         stats.Percentile(rebuf, 90),
		SessionsWithRebuf:      stats.FractionAbove(rebuf, 0),
		MedianIncompletePct:    stats.Median(incomplete),
		SessionsWithIncomplete: stats.FractionAbove(incomplete, 0),
		MedianWastagePct:       stats.Median(waste),
		Sessions:               len(sessions),
	}
}

// Fig9Result holds the main-comparison outcome.
type Fig9Result struct {
	Schemes map[string]SchemeSummary
}

// Fig9MainComparison reproduces Figure 9: Dragonfly vs Flare, Pano and
// Two-tier on the Belgian traces, plus the 1-second look-ahead variants of
// the wastage discussion (§4.3).
func Fig9MainComparison(env *Env, w io.Writer) (*Fig9Result, error) {
	_, sums, err := env.sweep("fig9", sim.Sweep{
		Videos:     env.Videos,
		Users:      env.Users,
		Bandwidths: env.Belgian,
		Schemes:    []string{"dragonfly", "flare", "pano", "twotier", "flare-1s", "pano-1s"},
	})
	if err != nil {
		return nil, err
	}
	out := &Fig9Result{Schemes: sums}
	printFig9(w, out)
	return out, nil
}

func printFig9(w io.Writer, r *Fig9Result) {
	fprintf(w, "== Figure 9: main comparison (Belgian 4G traces) ==\n")
	fprintf(w, "Paper: Dragonfly median PSNR +1.72 dB vs Flare, +2.5 dB vs Pano, +4.5 dB vs Two-tier;\n")
	fprintf(w, "       99%% of Flare / 50%% of Pano sessions rebuffer, Dragonfly none incomplete;\n")
	fprintf(w, "       median wastage: Pano 61.3%%, Flare 55.7%% (38.3%% at 1 s), Dragonfly & Two-tier lower.\n\n")
	fprintf(w, "%-12s %9s %9s %9s | %8s %8s %9s | %9s %9s | %8s\n",
		"scheme", "medPSNR", "p10PSNR", "p90PSNR", "medRebuf", "p90Rebuf", "sess.rebuf", "medIncmp", "sess.incmp", "medWaste")
	for _, name := range sortedNames(r.Schemes) {
		s := r.Schemes[name]
		fprintf(w, "%-12s %8.2f  %8.2f  %8.2f  | %7.2f%% %7.2f%% %8.0f%%  | %8.2f%% %8.0f%%  | %6.1f%%\n",
			s.Name, s.Score.Median, s.Score.P10, s.Score.P90,
			s.MedianRebufferPct, s.P90RebufferPct, 100*s.SessionsWithRebuf,
			s.MedianIncompletePct, 100*s.SessionsWithIncomplete,
			s.MedianWastagePct)
	}
	printGains(w, r.Schemes, "Flare", "Pano", "Two-tier")
}

// printGains prints Dragonfly's median-quality gain over each of bases
// present in schemes; it prints nothing without a Dragonfly row.
func printGains(w io.Writer, schemes map[string]SchemeSummary, bases ...string) {
	d, ok := schemes["Dragonfly"]
	if !ok {
		return
	}
	fprintf(w, "\nMeasured median-PSNR gains of Dragonfly:")
	for _, base := range bases {
		if b, ok := schemes[base]; ok {
			fprintf(w, "  vs %s: %+.2f dB", base, d.Score.Median-b.Score.Median)
		}
	}
	fprintf(w, "\n")
}
