package experiments

import (
	"fmt"
	"io"
	"time"

	"dragonfly/internal/core"
	"dragonfly/internal/decoder"
	"dragonfly/internal/geom"
	"dragonfly/internal/player"
	"dragonfly/internal/predict"
	"dragonfly/internal/sim"
	"dragonfly/internal/stats"
)

// This file contains extension experiments beyond the paper's figures:
// ablations of design choices DESIGN.md calls out (decision interval, RoI
// geometry), the §3.2 future-work directions, and sensitivity studies the
// paper's testbed assumed away (the client decode stage).

// ExtPredictorMethods compares viewport-prediction methods (static /
// velocity-decay / the paper's linear regression) across windows — an
// ablation of the predictor choice behind Figure 2.
func ExtPredictorMethods(env *Env, w io.Writer) map[string][]float64 {
	grid := geom.NewGrid(12, 12)
	vp := geom.DefaultViewport
	windows := []time.Duration{200 * time.Millisecond, time.Second, 3 * time.Second}
	methods := []struct {
		name string
		mk   func() predict.OrientationPredictor
	}{
		{"static", func() predict.OrientationPredictor { return &predict.Static{} }},
		{"decay", func() predict.OrientationPredictor { return &predict.Decay{} }},
		{"regression", func() predict.OrientationPredictor { return predict.NewViewport(0) }},
	}
	out := map[string][]float64{}
	fprintf(w, "== Extension: viewport-predictor methods (median accuracy) ==\n")
	fprintf(w, "%-12s", "method")
	for _, win := range windows {
		fprintf(w, " %9s", win)
	}
	fprintf(w, "\n")
	for _, m := range methods {
		row := make([]float64, 0, len(windows))
		fprintf(w, "%-12s", m.name)
		for _, win := range windows {
			var all []float64
			for _, u := range env.Users {
				all = append(all, predict.MethodAccuracy(m.mk(), u, grid, vp, win, 200*time.Millisecond)...)
			}
			med := stats.Median(all)
			row = append(row, med)
			fprintf(w, " %8.1f%%", 100*med)
		}
		fprintf(w, "\n")
		out[m.name] = row
	}
	fprintf(w, "The paper adopts linear regression (as Flare and Pano do); all methods\n")
	fprintf(w, "degrade with the window, which is the premise of Dragonfly's short primary look-ahead.\n")
	return out
}

// ExtDecisionInterval sweeps Dragonfly's refinement interval between the
// paper's 100 ms and the PerChunk extreme, quantifying how much of the
// ablation gap (Fig 12) each refinement step buys.
func ExtDecisionInterval(env *Env, w io.Writer) (map[string]SchemeSummary, error) {
	intervals := []time.Duration{100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond, time.Second}
	extra := map[string]sim.SchemeFactory{}
	var keys []string
	for _, iv := range intervals {
		iv := iv
		key := fmt.Sprintf("dragonfly-%s", iv)
		keys = append(keys, key)
		extra[key] = func() player.Scheme {
			return core.New(core.Options{DecisionInterval: iv, Name: fmt.Sprintf("Dragonfly@%s", iv)})
		}
	}
	res, out, err := env.sweep("", sim.Sweep{
		Videos:     env.Videos,
		Users:      limit(env.Users, 5),
		Bandwidths: limit(env.Belgian, 5),
		Schemes:    keys,
		Extra:      extra,
	})
	if err != nil {
		return nil, err
	}
	fprintf(w, "== Extension: decision-interval sweep (100 ms -> per chunk) ==\n")
	fprintf(w, "%-18s %9s %10s %9s\n", "variant", "medPSNR", "skipVP%", "medWaste")
	for _, iv := range intervals {
		name := fmt.Sprintf("Dragonfly@%s", iv)
		s, ok := out[name]
		if !ok {
			continue
		}
		skip := stats.Mean(sim.SessionStat(res[name], func(m *player.Metrics) float64 {
			return m.PrimarySkipFramePct()
		}))
		fprintf(w, "%-18s %8.2f  %9.2f  %7.1f%%\n", name, s.Score.Median, skip, s.MedianWastagePct)
	}
	fprintf(w, "Coarser refinement forfeits late, accurate predictions (the Fig 12 PerChunk gap).\n")
	return out, nil
}

// ExtDecodeStage sweeps the client decoder throughput, testing the paper's
// assumption that decode is never the bottleneck (§4.5's testbed
// provisioning).
func ExtDecodeStage(env *Env, w io.Writer) (map[string]SchemeSummary, error) {
	rates := []float64{0, 100, 20, 5} // MB/s of compressed input; 0 = infinite
	out := map[string]SchemeSummary{}
	fprintf(w, "== Extension: client decode-stage sensitivity ==\n")
	fprintf(w, "%-16s %9s %10s %11s\n", "decoder", "medPSNR", "incmpFr%", "maskShare%")
	for _, rate := range rates {
		rate := rate
		res, sums, err := env.sweep("", sim.Sweep{
			Videos:     env.Videos[:1],
			Users:      limit(env.Users, 3),
			Bandwidths: limit(env.Belgian, 3),
			Schemes:    []string{"dragonfly"},
			Decoder: func() *decoder.Model {
				if rate == 0 {
					return nil
				}
				return &decoder.Model{ThroughputMBps: rate, PerTileOverhead: 200 * time.Microsecond}
			},
		})
		if err != nil {
			return nil, err
		}
		s := sums["Dragonfly"]
		s.Name = "infinite"
		if rate > 0 {
			s.Name = fmt.Sprintf("%.0f MB/s", rate)
		}
		out[s.Name] = s
		maskShare := stats.Mean(sim.SessionStat(res["Dragonfly"], func(m *player.Metrics) float64 {
			return 100 * m.MaskingShare()
		}))
		fprintf(w, "%-16s %8.2f  %9.3f  %10.2f\n", s.Name, s.Score.Median, s.MedianIncompletePct, maskShare)
	}
	fprintf(w, "Decode only matters once throughput nears the stream rate; the paper's\n")
	fprintf(w, "testbed assumption (decode never binds) holds for realistic decoders.\n")
	return out, nil
}

// ExtRoIGeometry ablates the concentric-RoI design of the location score:
// a single viewport ring, the paper-style three rings, and a wide guard
// band.
func ExtRoIGeometry(env *Env, w io.Writer) (map[string]SchemeSummary, error) {
	variants := []struct {
		key  string
		rois geom.RoISet
	}{
		{"single-ring", geom.RoISet{RadiiDeg: []float64{50}}},
		{"three-rings", geom.DefaultRoIs},
		{"wide-guard", geom.RoISet{RadiiDeg: []float64{25, 50, 85}}},
	}
	extra := map[string]sim.SchemeFactory{}
	var keys []string
	for _, v := range variants {
		v := v
		keys = append(keys, v.key)
		extra[v.key] = func() player.Scheme {
			return core.New(core.Options{RoIs: v.rois, Name: "RoI-" + v.key})
		}
	}
	_, out, err := env.sweep("", sim.Sweep{
		Videos:     env.Videos,
		Users:      limit(env.Users, 5),
		Bandwidths: limit(env.Belgian, 5),
		Schemes:    keys,
		Extra:      extra,
	})
	if err != nil {
		return nil, err
	}
	fprintf(w, "== Extension: RoI geometry ablation ==\n")
	fprintf(w, "%-18s %9s %10s %9s\n", "variant", "medPSNR", "p10PSNR", "medWaste")
	for _, v := range variants {
		name := "RoI-" + v.key
		s, ok := out[name]
		if !ok {
			continue
		}
		fprintf(w, "%-18s %8.2f  %9.2f  %7.1f%%\n", name, s.Score.Median, s.Score.P10, s.MedianWastagePct)
	}
	fprintf(w, "Concentric rings weight central tiles; a wider guard band trades wastage\n")
	fprintf(w, "for robustness to misprediction.\n")
	return out, nil
}

// limit is xs cut to at most n entries: the reduced sweeps take the first
// users and traces of the environment.
func limit[T any](xs []T, n int) []T {
	if len(xs) > n {
		return xs[:n]
	}
	return xs
}
