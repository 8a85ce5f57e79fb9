package core

import (
	"testing"
	"time"

	"dragonfly/internal/player"
	"dragonfly/internal/trace"
	"dragonfly/internal/video"
)

// decideProbe calls after, with the count of decisions so far, after every
// decision of a live simulated session: on the engine's own context, with
// the windows that decision built still in place in the probe's scratch.
type decideProbe struct {
	*Dragonfly
	s     scratch
	n     int
	after func(n int, ctx *player.Context, s *scratch)
}

func (p *decideProbe) Decide(ctx *player.Context) []player.RequestItem {
	items := p.Dragonfly.decide(ctx, &p.s)
	p.n++
	p.after(p.n, ctx, &p.s)
	return items
}

// BenchmarkScoreSlab times the location-score pass of one window, the part
// of window.build that BenchmarkDecideMidSession's candidates spend outside
// the scheduler: the 70th decision (t = 6.9 s) of the session that
// benchmark plays (v27 on a flat 16 Mbps link), once for the 1 s primary
// window and once for the 3 s scheduled-masking window (step 6, three to
// four chunks: most of each candidate's frames lie outside its chunk).
func BenchmarkScoreSlab(b *testing.B) {
	b.Run("primary", func(b *testing.B) {
		benchScoreSlab(b, Options{}, func(d *Dragonfly, s *scratch) (*window, int) { return &s.w, d.opts.frameStep })
	})
	b.Run("masking", func(b *testing.B) {
		benchScoreSlab(b, Options{Masking: MaskTiled, MaskScheduled: true},
			func(d *Dragonfly, s *scratch) (*window, int) { return &s.mw, 3 * d.opts.frameStep })
	})
}

func benchScoreSlab(b *testing.B, o Options, pick func(*Dragonfly, *scratch) (w *window, step int)) {
	e := video.Table3[len(video.Table3)-1]
	m := video.Generate(video.GenParams{
		ID: e.ID, NumChunks: 10,
		TargetQP42Mbps: e.QP42Mbps, TargetQP22Mbps: e.QP22Mbps,
		MotionLevel: e.MotionLevel, Seed: e.Seed,
	})
	d := New(o)
	const at = 70
	probe := &decideProbe{Dragonfly: d, after: func(n int, _ *player.Context, s *scratch) {
		if n != at {
			return
		}
		w, step := pick(d, s)
		nSamples := len(w.sampleOri)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.scoreSlab(d.opts, &d.tabs, w.numFrames, nSamples, step)
		}
		b.StopTimer()
		b.ReportMetric(float64(len(w.slab)), "cands/op")
		b.ReportMetric(float64(nSamples), "samples/op")
	}}
	_, err := player.Run(player.Config{
		Manifest:  m,
		Head:      trace.GenerateHead(trace.HeadGenParams{UserID: "u", Class: trace.MotionMedium, Duration: 11 * time.Second, Seed: 4}),
		Bandwidth: &trace.BandwidthTrace{ID: "flat", SamplePeriod: time.Second, Mbps: []float64{16}},
		Scheme:    probe,
	})
	if err != nil {
		b.Fatal(err)
	}
	if probe.n < at {
		b.Fatalf("session ended after %d decisions, before the probe at %d", probe.n, at)
	}
}
