package experiments

import (
	"io"
	"time"

	"dragonfly/internal/geom"
	"dragonfly/internal/predict"
	"dragonfly/internal/stats"
)

// Fig2Point is one prediction-window sample of Figure 2.
type Fig2Point struct {
	Window         time.Duration
	MedianAccuracy float64
	P25, P75       float64
}

// Fig2PredictionAccuracy reproduces Figure 2: viewport-prediction accuracy
// (fraction of actual-viewport tiles predicted) vs prediction window, using
// linear regression on the user traces. The paper reports 94.2% median at
// 0.2 s degrading to 25.4% at 3 s.
func Fig2PredictionAccuracy(env *Env, w io.Writer) ([]Fig2Point, error) {
	grid := geom.NewGrid(12, 12)
	vp := geom.DefaultViewport
	windows := []time.Duration{
		200 * time.Millisecond, 500 * time.Millisecond, time.Second,
		1500 * time.Millisecond, 2 * time.Second, 3 * time.Second,
	}
	fprintf(w, "== Figure 2: viewport prediction accuracy vs window ==\n")
	fprintf(w, "Paper: median 94.2%% @0.2 s, 25.4%% @3 s (linear regression, [34] traces)\n\n")
	fprintf(w, "%-8s %10s %10s %10s\n", "window", "median", "p25", "p75")
	out := make([]Fig2Point, 0, len(windows))
	for _, win := range windows {
		var all []float64
		for _, u := range env.Users {
			all = append(all, predict.MethodAccuracy(predict.NewViewport(0), u, grid, vp, win, 200*time.Millisecond)...)
		}
		p := Fig2Point{
			Window:         win,
			MedianAccuracy: stats.Median(all),
			P25:            stats.Percentile(all, 25),
			P75:            stats.Percentile(all, 75),
		}
		out = append(out, p)
		fprintf(w, "%-8s %9.1f%% %9.1f%% %9.1f%%\n",
			win, 100*p.MedianAccuracy, 100*p.P25, 100*p.P75)
	}
	return out, nil
}
