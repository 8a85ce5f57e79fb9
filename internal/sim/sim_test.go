package sim

import (
	"math"
	"slices"
	"testing"
	"time"

	"dragonfly/internal/baseline"
	"dragonfly/internal/core"
	"dragonfly/internal/decoder"
	"dragonfly/internal/geom"
	"dragonfly/internal/player"
	"dragonfly/internal/trace"
	"dragonfly/internal/video"
)

func smallSweep(schemes ...string) Sweep {
	return Sweep{
		Videos: []*video.Manifest{video.Generate(video.GenParams{
			ID: "sw", Rows: 6, Cols: 6, NumChunks: 5,
			TargetQP42Mbps: 1, TargetQP22Mbps: 8, Seed: 3,
		})},
		Users: []*trace.HeadTrace{
			trace.GenerateHead(trace.HeadGenParams{UserID: "u1", Class: trace.MotionLow, Duration: 5 * time.Second, Seed: 1}),
			trace.GenerateHead(trace.HeadGenParams{UserID: "u2", Class: trace.MotionHigh, Duration: 5 * time.Second, Seed: 2}),
		},
		Bandwidths: []*trace.BandwidthTrace{
			{ID: "b1", SamplePeriod: time.Second, Mbps: []float64{8}},
			{ID: "b2", SamplePeriod: time.Second, Mbps: []float64{15}},
		},
		Schemes: schemes,
		Workers: 4,
	}
}

func TestRegistryComplete(t *testing.T) {
	reg := Registry()
	want := []string{"dragonfly", "flare", "pano", "twotier", "passiveskip",
		"perchunk", "nomask", "dragonfly-pspnr", "pano-pspnr", "flare-1s",
		"pano-1s", "dragonfly-tiled"}
	for _, key := range want {
		f, ok := reg[key]
		if !ok {
			t.Errorf("registry missing %q", key)
			continue
		}
		s := f()
		if s.Name() == "" {
			t.Errorf("%q produced unnamed scheme", key)
		}
		// Factories must return fresh instances.
		if f() == s {
			t.Errorf("%q factory returned a shared instance", key)
		}
	}
	// The baselines derive these names from their options.
	for key, name := range map[string]string{"flare-1s": "Flare-1s", "pano-1s": "Pano-1s", "pano-pspnr": "Pano-PSPNR"} {
		if got := reg[key]().Name(); got != name {
			t.Errorf("%q is named %q, want %q", key, got, name)
		}
	}
}

// TestRegistryDecidesAtInfiniteRate hands every registered scheme a
// +Inf throughput estimate. Each must decide without panicking, and each
// baseline, whose budgets come from internal/abr, must decide exactly what
// it decides at 1e6 Mbps, a rate at which every budget fits: an infinite
// rate means everything fits, not nothing.
func TestRegistryDecidesAtInfiniteRate(t *testing.T) {
	m := video.Generate(video.GenParams{
		ID: "inf", Rows: 6, Cols: 6, NumChunks: 6,
		TargetQP42Mbps: 1, TargetQP22Mbps: 8, Seed: 21,
	})
	decide := func(f SchemeFactory, mbps float64) (player.Scheme, []player.RequestItem) {
		s := f()
		items := s.Decide(&player.Context{
			PlayFrame:     45,
			Now:           1500 * time.Millisecond,
			Manifest:      m,
			Grid:          m.Grid(),
			Viewport:      geom.DefaultViewport,
			Received:      player.NewReceived(m),
			Predict:       func(time.Duration) geom.Orientation { return geom.Orientation{Yaw: 30} },
			PredictedMbps: mbps,
			FrameDuration: time.Second / 30,
			FrameDeadline: func(frame int) time.Duration { return time.Duration(frame) * time.Second / 30 },
		})
		return s, slices.Clone(items)
	}
	reg := Registry()
	keys := make([]string, 0, len(reg))
	for key := range reg {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	for _, key := range keys {
		s, atInf := decide(reg[key], math.Inf(1))
		if len(atInf) == 0 {
			t.Errorf("%s: no fetches at +Inf Mbps", key)
		}
		switch s.(type) {
		case *baseline.Flare, *baseline.Pano, *baseline.TwoTier, *baseline.PassiveSkip:
			if _, atHuge := decide(reg[key], 1e6); !slices.Equal(atInf, atHuge) {
				t.Errorf("%s: decides differently at +Inf Mbps than at 1e6 Mbps:\n+Inf %v\n1e6  %v", key, atInf, atHuge)
			}
		}
	}
}

func TestRunSweep(t *testing.T) {
	res, err := Run(smallSweep("dragonfly", "flare"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d schemes", len(res))
	}
	for name, sessions := range res {
		if len(sessions) != 4 { // 1 video x 2 users x 2 traces
			t.Errorf("%s: %d sessions, want 4", name, len(sessions))
		}
		for _, s := range sessions {
			if s.TotalFrames == 0 {
				t.Errorf("%s: empty session", name)
			}
		}
	}
	if _, ok := res["Dragonfly"]; !ok {
		t.Error("results not keyed by scheme display name")
	}
}

func TestRunSweepDeterministicOrder(t *testing.T) {
	a, err := Run(smallSweep("dragonfly"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallSweep("dragonfly"))
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := a["Dragonfly"], b["Dragonfly"]
	for i := range sa {
		if sa[i].UserID != sb[i].UserID || sa[i].TraceID != sb[i].TraceID {
			t.Fatal("session order not deterministic")
		}
		if sa[i].MedianScore() != sb[i].MedianScore() {
			t.Fatal("session results not deterministic")
		}
	}
}

func TestRunSweepErrors(t *testing.T) {
	if _, err := Run(Sweep{Schemes: []string{"dragonfly"}}); err == nil {
		t.Error("empty sweep accepted")
	}
	sw := smallSweep("definitely-not-a-scheme")
	if _, err := Run(sw); err == nil {
		t.Error("unknown scheme accepted")
	}
	// A repeated key used to play every session twice under one name.
	if _, err := Run(smallSweep("dragonfly", "dragonfly")); err == nil {
		t.Error("repeated scheme key accepted")
	}
}

func TestPooledFrameScores(t *testing.T) {
	a := &player.Metrics{FrameScore: []float64{1, 2}}
	b := &player.Metrics{FrameScore: []float64{3}}
	got := PooledFrameScores([]*player.Metrics{a, b})
	if len(got) != 3 || got[2] != 3 {
		t.Errorf("pooled = %v", got)
	}
}

func TestSessionStat(t *testing.T) {
	a := &player.Metrics{FrameScore: []float64{10, 20}}
	got := SessionStat([]*player.Metrics{a}, func(m *player.Metrics) float64 { return m.MeanScore() })
	if len(got) != 1 || got[0] != 15 {
		t.Errorf("stat = %v", got)
	}
}

func TestRunSweepExtraFactories(t *testing.T) {
	sw := smallSweep("custom")
	sw.Extra = map[string]SchemeFactory{
		"custom": func() player.Scheme {
			return core.New(core.Options{Name: "Custom", DecisionInterval: 200 * time.Millisecond})
		},
	}
	res, err := Run(sw)
	if err != nil {
		t.Fatal(err)
	}
	if len(res["Custom"]) != 4 {
		t.Fatalf("custom factory sessions: %d", len(res["Custom"]))
	}
}

func TestRunSweepDecoderAndInterpolation(t *testing.T) {
	sw := smallSweep("dragonfly-tiled")
	sw.Decoder = func() *decoder.Model {
		return &decoder.Model{ThroughputMBps: 500}
	}
	sw.MaskInterpolation = true
	res, err := Run(sw)
	if err != nil {
		t.Fatal(err)
	}
	if len(res["Dragonfly-Tiled"]) != 4 {
		t.Fatalf("sessions: %d", len(res["Dragonfly-Tiled"]))
	}
}
