package core

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"dragonfly/internal/geom"
	"dragonfly/internal/obs"
	"dragonfly/internal/player"
	"dragonfly/internal/video"
)

// movingContext returns a context whose prediction drifts with time, so
// repeated decisions exercise changing candidate sets rather than a single
// cached shape.
func movingContext(m *video.Manifest, mbps float64) *player.Context {
	return &player.Context{
		Now:       0,
		PlayFrame: 0,
		Manifest:  m,
		Grid:      m.Grid(),
		Viewport:  geom.DefaultViewport,
		Received:  player.NewReceived(m),
		Predict: func(at time.Duration) geom.Orientation {
			return geom.Orientation{Yaw: 20 * at.Seconds(), Pitch: 5}
		},
		PredictedMbps: mbps,
		FrameDuration: time.Second / 30,
		FrameDeadline: func(frame int) time.Duration { return time.Duration(frame) * time.Second / 30 },
	}
}

// raceEnabled is set under the race detector, which makes sync.Pool drop a
// random quarter of what is Put in it.
var raceEnabled bool

// TestDecideAllocationFree pins the tentpole property: after warm-up, a
// decision refinement reuses its scratch buffers and allocates nothing, for
// every masking variant, and with a metrics registry attached. Under the
// race detector, where the pool may drop a scratch and Decide then builds
// one anew, the pin holds the decision on a scratch the test keeps.
func TestDecideAllocationFree(t *testing.T) {
	m := testManifest()
	for c := range m.MaskDisplacement {
		m.MaskDisplacement[c] = 20
	}
	variants := map[string]Options{
		"full360":    defaultOptions(),
		"tiled":      {Masking: MaskTiled},
		"tiledSched": {Masking: MaskTiled, MaskScheduled: true},
		"none":       {Masking: MaskNone},
		"exact":      {ExactGeometry: true},
		"registry":   defaultOptions(),
	}
	for name, opts := range variants {
		t.Run(name, func(t *testing.T) {
			d := New(opts)
			if name == "registry" {
				d.SetObs(obs.NewRegistry())
			}
			decide := d.Decide
			if raceEnabled {
				s := new(scratch)
				decide = func(ctx *player.Context) []player.RequestItem { return d.decide(ctx, s) }
			}
			ctx := movingContext(m, 8)
			// Warm up until every scratch buffer has reached steady-state
			// capacity (the head keeps moving, so capacities must absorb
			// the largest candidate set).
			for i := 0; i < 10; i++ {
				ctx.Now = time.Duration(i) * 100 * time.Millisecond
				decide(ctx)
			}
			i := 10
			if n := testing.AllocsPerRun(50, func() {
				ctx.Now = time.Duration(i%30) * 100 * time.Millisecond
				i++
				decide(ctx)
			}); n != 0 {
				t.Errorf("%s: Decide allocated %v per run in steady state", name, n)
			}
		})
	}
}

// TestBorrowedScratchCarriesNothing interleaves the decisions of instances
// with different Options, and one on another grid, on one goroutine, where
// each Decide takes back the scratch the one before it returned to the
// pool, and then runs them side by side, one goroutine each, sharing the
// pool. Every instance must list what it lists deciding alone on a scratch
// of its own: nothing of a decision may carry into the next.
func TestBorrowedScratchCarriesNothing(t *testing.T) {
	m := testManifest()
	for c := range m.MaskDisplacement {
		m.MaskDisplacement[c] = 20
	}
	wide := video.Generate(video.GenParams{ID: "wide", Rows: 8, Cols: 12, NumChunks: 4, Seed: 5})
	type session struct {
		opts Options
		m    *video.Manifest
		mbps float64
		yaw  float64 // where the session's head starts
	}
	sessions := []session{
		{defaultOptions(), m, 8, 0},
		{Options{Masking: MaskTiled, MaskScheduled: true}, m, 4, 90},
		{Options{ExactGeometry: true}, m, 16, 180},
		{Options{Masking: MaskTiled, MaskScheduled: true}, wide, 6, 270},
		{Options{Masking: MaskTiled}, m, 3, 45},
	}
	newContext := func(ss session) *player.Context {
		ctx := movingContext(ss.m, ss.mbps)
		ctx.Predict = func(at time.Duration) geom.Orientation {
			return geom.Orientation{Yaw: ss.yaw + 20*at.Seconds(), Pitch: 5}
		}
		return ctx
	}
	const decisions = 30
	// play runs decision i of a session: its head keeps moving, playback
	// advances three frames per decision, and the first items of each list
	// arrive before the next, so candidate sets and masking plans change.
	play := func(ctx *player.Context, i int, decide func(*player.Context) []player.RequestItem) []player.RequestItem {
		ctx.Now = time.Duration(i) * 100 * time.Millisecond
		ctx.PlayFrame = min(3*i, ctx.Manifest.NumFrames()-1)
		items := append([]player.RequestItem(nil), decide(ctx)...)
		for _, it := range items[:min(len(items), 5)] {
			ctx.Received.Record(it, ctx.Now)
		}
		return items
	}
	alone := make([][][]player.RequestItem, len(sessions))
	for k, ss := range sessions {
		d, s, ctx := New(ss.opts), new(scratch), newContext(ss)
		for i := 0; i < decisions; i++ {
			alone[k] = append(alone[k], play(ctx, i, func(ctx *player.Context) []player.RequestItem { return d.decide(ctx, s) }))
		}
	}
	check := func(how string, k, i int, got []player.RequestItem) {
		if !reflect.DeepEqual(got, alone[k][i]) {
			t.Errorf("session %d (%+v), decision %d: %s it lists %v, alone %v", k, sessions[k].opts, i, how, got, alone[k][i])
		}
	}
	ds := make([]*Dragonfly, len(sessions))
	ctxs := make([]*player.Context, len(sessions))
	for k, ss := range sessions {
		ds[k], ctxs[k] = New(ss.opts), newContext(ss)
	}
	for i := 0; i < decisions; i++ {
		for k := range sessions {
			check("interleaved", k, i, play(ctxs[k], i, ds[k].Decide))
		}
	}
	var wg sync.WaitGroup
	for k, ss := range sessions {
		wg.Add(1)
		go func(k int, d *Dragonfly, ctx *player.Context) {
			defer wg.Done()
			for i := 0; i < decisions; i++ {
				check("side by side", k, i, play(ctx, i, d.Decide))
			}
		}(k, New(ss.opts), newContext(ss))
	}
	wg.Wait()
}

// TestMaskingPlannerAllocationFree pins the same property for the masking
// planner's scratch path in isolation (plain tiled and utility-scheduled),
// on a scratch the test holds.
func TestMaskingPlannerAllocationFree(t *testing.T) {
	m := testManifest()
	for c := range m.MaskDisplacement {
		m.MaskDisplacement[c] = 20
	}
	for name, opts := range map[string]Options{
		"tiled":      {Masking: MaskTiled},
		"tiledSched": {Masking: MaskTiled, MaskScheduled: true},
		"full360":    defaultOptions(),
	} {
		t.Run(name, func(t *testing.T) {
			d := New(opts)
			ctx := movingContext(m, 8)
			s := new(scratch)
			var buf []player.RequestItem
			for i := 0; i < 10; i++ {
				ctx.Now = time.Duration(i) * 100 * time.Millisecond
				buf = d.appendMasking(ctx, buf[:0], s)
			}
			i := 10
			if n := testing.AllocsPerRun(50, func() {
				ctx.Now = time.Duration(i%30) * 100 * time.Millisecond
				i++
				buf = d.appendMasking(ctx, buf[:0], s)
			}); n != 0 {
				t.Errorf("%s: masking planner allocated %v per run", name, n)
			}
		})
	}
}

// TestDecideTablePathMatchesExactShape checks that the table-driven fast
// path and the ExactGeometry fallback agree on the decision's shape: the
// same chunks covered, similar candidate counts, and every emitted item
// well-formed. (Scores differ by bounded quantization, so assignments may
// differ tile-by-tile; the structural agreement is what playback depends
// on.)
func TestDecideTablePathMatchesExactShape(t *testing.T) {
	m := testManifest()
	table := New(Options{})
	exact := New(Options{ExactGeometry: true})
	ctxT := movingContext(m, 8)
	ctxE := movingContext(m, 8)
	for i := 0; i < 5; i++ {
		ctxT.Now = time.Duration(i) * 200 * time.Millisecond
		ctxE.Now = ctxT.Now
		ti := table.Decide(ctxT)
		ei := exact.Decide(ctxE)
		tc := map[int]bool{}
		ec := map[int]bool{}
		for _, it := range ti {
			tc[it.Chunk] = true
		}
		for _, it := range ei {
			ec[it.Chunk] = true
		}
		for c := range ec {
			if !tc[c] {
				t.Errorf("step %d: exact path covers chunk %d, table path does not", i, c)
			}
		}
		if len(ti) == 0 || len(ei) == 0 {
			t.Fatalf("step %d: empty decision (table %d, exact %d)", i, len(ti), len(ei))
		}
		nt, ne := len(ti), len(ei)
		if nt*2 < ne || ne*2 < nt {
			t.Errorf("step %d: item counts diverge badly: table %d vs exact %d", i, nt, ne)
		}
	}
}

// TestDecideCountsOncePerDecision: with a registry attached, every
// decision moves each core_* metric exactly once, by what that decision
// listed, skipped and planned. It decides on a scratch it holds, to count
// the candidates that decision's window kept.
func TestDecideCountsOncePerDecision(t *testing.T) {
	m := testManifest()
	for c := range m.MaskDisplacement {
		m.MaskDisplacement[c] = 20
	}
	reg := obs.NewRegistry()
	d := New(Options{Masking: MaskTiled})
	d.SetObs(reg)
	ctx := movingContext(m, 8)
	var s scratch
	var want [5]int64 // decisions, candidates, listed, skipped, mask items
	for i := 0; i < 20; i++ {
		ctx.Now = time.Duration(i) * 100 * time.Millisecond
		var listed, masked int64
		for _, it := range d.decide(ctx, &s) {
			if it.Stream == player.Primary {
				listed++
			} else {
				masked++
			}
		}
		cands := int64(len(s.w.cands))
		want = [5]int64{want[0] + 1, want[1] + cands, want[2] + listed, want[3] + cands - listed, want[4] + masked}
		snap := reg.Snapshot()
		for j, name := range []string{"core_decisions", "core_candidates", "core_listed", "core_skipped", "core_mask_items"} {
			if got := snap.Counters[name]; got != want[j] {
				t.Fatalf("decision %d: %s = %d, want %d", i, name, got, want[j])
			}
		}
		if got := snap.Histograms["core_utility"].Count; got != want[0] {
			t.Fatalf("decision %d: core_utility observed %d times, want %d", i, got, want[0])
		}
	}
	if want[4] == 0 || want[3] == 0 {
		t.Fatalf("no masking item or skipped candidate in 20 decisions (%v): the test proves little", want)
	}
}
