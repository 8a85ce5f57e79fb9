package experiments

import (
	"io"
	"math"
	"time"

	"dragonfly/internal/geom"
	"dragonfly/internal/quality"
	"dragonfly/internal/sim"
	"dragonfly/internal/stats"
	"dragonfly/internal/trace"
)

// Fig10PSPNR reproduces Figure 10: Dragonfly-PSPNR vs Pano-PSPNR on the
// Belgian traces. The paper: Dragonfly achieves higher PSPNR across
// viewports, improving by over 2 dB for 69% of viewports.
func Fig10PSPNR(env *Env, w io.Writer) (map[string]SchemeSummary, error) {
	_, out, err := env.sweep("", sim.Sweep{
		Videos:     env.Videos,
		Users:      env.Users,
		Bandwidths: env.Belgian,
		Schemes:    []string{"dragonfly-pspnr", "pano-pspnr"},
		Metric:     quality.PSPNR,
	})
	if err != nil {
		return nil, err
	}
	fprintf(w, "== Figure 10: PSPNR-optimizing variants ==\n")
	fprintf(w, "Paper: Dragonfly-PSPNR beats Pano-PSPNR; >2 dB better for 69%% of viewports.\n\n")
	for _, name := range sortedNames(out) {
		s := out[name]
		fprintf(w, "%-18s median PSPNR %6.2f dB   p10 %6.2f   p90 %6.2f\n",
			s.Name, s.Score.Median, s.Score.P10, s.Score.P90)
	}
	if d, ok := out["Dragonfly-PSPNR"]; ok {
		if p, ok2 := out["Pano-PSPNR"]; ok2 {
			fprintf(w, "Measured median-PSPNR gain: %+.2f dB\n", d.Score.Median-p.Score.Median)
		}
	}
	return out, nil
}

// Fig11Irish reproduces Figure 11: the main comparison on the Irish 5G
// traces. The paper: same ordering as Fig 9, slightly worse across the
// board, and Pano hit hardest by the abrupt near-zero dips while
// Dragonfly's masking absorbs them.
func Fig11Irish(env *Env, w io.Writer) (map[string]SchemeSummary, error) {
	_, out, err := env.sweep("fig11", sim.Sweep{
		Videos:     env.Videos,
		Users:      env.Users,
		Bandwidths: env.Irish,
		Schemes:    []string{"dragonfly", "flare", "pano", "twotier"},
	})
	if err != nil {
		return nil, err
	}
	fprintf(w, "== Figure 11: Irish 5G traces ==\n")
	fprintf(w, "Paper: same trends as Belgian, slightly worse; Pano rebuffers more on dips.\n\n")
	fprintf(w, "%-12s %9s | %9s %10s | %9s\n", "scheme", "medPSNR", "medRebuf", "sess.rebuf", "medWaste")
	for _, name := range sortedNames(out) {
		s := out[name]
		fprintf(w, "%-12s %8.2f  | %8.2f%% %9.0f%%  | %7.1f%%\n",
			s.Name, s.Score.Median, s.MedianRebufferPct, 100*s.SessionsWithRebuf, s.MedianWastagePct)
	}
	return out, nil
}

// Fig19MaskingStrategies reproduces Figure 19: Dragonfly with full-360°
// masking vs tiled masking. The paper: comparable, with tiled masking
// seeing slightly more incomplete frames and slightly more overhead
// (low-quality tiled encodings are less efficient).
func Fig19MaskingStrategies(env *Env, w io.Writer) (map[string]SchemeSummary, error) {
	_, out, err := env.sweep("", sim.Sweep{
		Videos:     env.Videos,
		Users:      env.Users,
		Bandwidths: env.Belgian,
		Schemes:    []string{"dragonfly", "dragonfly-tiled"},
	})
	if err != nil {
		return nil, err
	}
	fprintf(w, "== Figure 19: masking strategies (full-360° vs tiled) ==\n")
	fprintf(w, "Paper: comparable PSNR; tiled masking has slightly more incomplete frames and overhead.\n\n")
	fprintf(w, "%-16s %9s | %10s %11s | %9s\n", "variant", "medPSNR", "incmpFr%", "sess.incmp", "medWaste")
	for _, name := range sortedNames(out) {
		s := out[name]
		fprintf(w, "%-16s %8.2f  | %9.3f%% %9.0f%%  | %7.1f%%\n",
			s.Name, s.Score.Median, s.MedianIncompletePct, 100*s.SessionsWithIncomplete, s.MedianWastagePct)
	}
	return out, nil
}

// Fig21to23Row is one error-magnitude row of the prediction-error
// sensitivity study.
type Fig21to23Row struct {
	ErrorDeg float64
	Schemes  map[string]SchemeSummary
}

// Fig21to23ErrorSensitivity reproduces Figures 21-23: the main comparison
// with viewport-coordinate histories shifted by uniform random D degrees
// (D = 5, 20, 40). The paper: Dragonfly keeps the highest PSNR and lowest
// overhead at every error level, with ~1% of sessions seeing incomplete
// viewports.
func Fig21to23ErrorSensitivity(env *Env, w io.Writer) ([]Fig21to23Row, error) {
	// The paper uses a reduced sweep here (7 videos, 5 users, 5 traces).
	users, traces := limit(env.Users, 5), limit(env.Belgian, 5)
	var rows []Fig21to23Row
	fprintf(w, "== Figures 21-23: sensitivity to motion-prediction error ==\n")
	fprintf(w, "Paper: Dragonfly stays highest-PSNR and lowest-overhead for D = 5, 20, 40 degrees.\n\n")
	for _, d := range []float64{5, 20, 40} {
		_, sums, err := env.sweep("", sim.Sweep{
			Videos:          env.Videos,
			Users:           users,
			Bandwidths:      traces,
			Schemes:         []string{"dragonfly", "flare", "pano", "twotier"},
			PredictErrorDeg: d,
		})
		if err != nil {
			return nil, err
		}
		row := Fig21to23Row{ErrorDeg: d, Schemes: sums}
		rows = append(rows, row)
		fprintf(w, "D = %.0f degrees:\n", d)
		fprintf(w, "  %-12s %9s | %9s | %9s | %10s\n", "scheme", "medPSNR", "medRebuf", "medWaste", "sess.incmp")
		for _, name := range sortedNames(row.Schemes) {
			s := row.Schemes[name]
			fprintf(w, "  %-12s %8.2f  | %8.2f%% | %7.1f%% | %8.0f%%\n",
				s.Name, s.Score.Median, s.MedianRebufferPct, s.MedianWastagePct, 100*s.SessionsWithIncomplete)
		}
	}
	return rows, nil
}

// Fig5Result summarizes head movement during stalls.
type Fig5Result struct {
	StallCount         int
	MeanYawDuringStall float64 // mean absolute yaw displacement per stall
	MaxYawDuringStall  float64
	MeanStallDuration  time.Duration
}

// Fig5YawDuringStalls reproduces the Figure 5 observation: users keep
// moving — often substantially — while stall-based systems rebuffer, which
// is why pausing for all tiles backfires.
func Fig5YawDuringStalls(env *Env, w io.Writer) (*Fig5Result, error) {
	// Flare on the most constrained traces produces the stalls.
	res, _, err := env.sweep("", sim.Sweep{
		Videos:     env.Videos[:1],
		Users:      env.Users,
		Bandwidths: env.Belgian,
		Schemes:    []string{"flare"},
	})
	if err != nil {
		return nil, err
	}
	out := &Fig5Result{}
	var yaws []float64
	var durs []float64
	for _, s := range res["Flare"] {
		var user *trace.HeadTrace
		for _, u := range env.Users {
			if u.UserID == s.UserID {
				user = u
			}
		}
		if user == nil {
			continue
		}
		for _, iv := range s.StallIntervals {
			out.StallCount++
			// Accumulate absolute yaw travel over the stall interval.
			disp := 0.0
			prev := user.At(iv.Start)
			for t := iv.Start + user.SamplePeriod; t <= iv.End; t += user.SamplePeriod {
				cur := user.At(t)
				disp += math.Abs(geom.YawDelta(prev.Yaw, cur.Yaw))
				prev = cur
			}
			yaws = append(yaws, disp)
			durs = append(durs, (iv.End - iv.Start).Seconds())
			if disp > out.MaxYawDuringStall {
				out.MaxYawDuringStall = disp
			}
		}
	}
	out.MeanYawDuringStall = stats.Mean(yaws)
	out.MeanStallDuration = time.Duration(stats.Mean(durs) * float64(time.Second))
	fprintf(w, "== Figure 5: user movement during stalls ==\n")
	fprintf(w, "Paper: users can move significantly (tens of degrees of yaw) while rebuffering.\n\n")
	fprintf(w, "Flare stalls observed: %d; mean |yaw| during a stall: %.1f deg (max %.1f); mean stall %.2fs\n",
		out.StallCount, out.MeanYawDuringStall, out.MaxYawDuringStall, out.MeanStallDuration.Seconds())
	return out, nil
}
