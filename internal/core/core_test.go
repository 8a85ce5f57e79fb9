package core

import (
	"math"
	"reflect"
	"testing"
	"time"

	"dragonfly/internal/geom"
	"dragonfly/internal/player"
	"dragonfly/internal/quality"
	"dragonfly/internal/trace"
	"dragonfly/internal/video"
)

func testManifest() *video.Manifest {
	return video.Generate(video.GenParams{
		ID: "core", Rows: 6, Cols: 6, NumChunks: 6,
		TargetQP42Mbps: 1, TargetQP22Mbps: 8, Seed: 11,
	})
}

func staticContext(m *video.Manifest, mbps float64) *player.Context {
	return &player.Context{
		Now:           0,
		PlayFrame:     0,
		Manifest:      m,
		Grid:          m.Grid(),
		Viewport:      geom.DefaultViewport,
		Received:      player.NewReceived(m),
		Predict:       func(time.Duration) geom.Orientation { return geom.Orientation{} },
		PredictedMbps: mbps,
		FrameDuration: time.Second / 30,
		FrameDeadline: func(frame int) time.Duration { return time.Duration(frame) * time.Second / 30 },
	}
}

func TestBuildWindowCandidates(t *testing.T) {
	m := testManifest()
	ctx := staticContext(m, 10)
	w := buildWindow(ctx, defaultOptions())
	if len(w.cands) == 0 {
		t.Fatal("no candidates")
	}
	if w.numFrames != 30 {
		t.Errorf("window frames = %d, want 30", w.numFrames)
	}
	// All candidates must be within chunk 0 (1 s look-ahead from frame 0).
	for _, c := range w.cands {
		if c.chunk != 0 {
			t.Errorf("candidate chunk %d outside window", c.chunk)
		}
		if c.full <= 0 {
			t.Error("candidate with zero cumulative score")
		}
		if c.maskScore <= 0 {
			t.Error("full-360 masking should give every candidate a skip floor")
		}
	}
	// The tile at the predicted center must be among the candidates with
	// (nearly) the highest cumulative score.
	center := ctx.Grid.TileAt(geom.Orientation{})
	found := false
	for _, c := range w.cands {
		if c.tile == center {
			found = true
			if c.full < w.cands[0].full*0.9 {
				t.Errorf("center tile score %v far below best %v", c.full, w.cands[0].full)
			}
		}
	}
	if !found {
		t.Error("center tile not a candidate")
	}
}

func TestBuildWindowSkipsReceivedPrimary(t *testing.T) {
	m := testManifest()
	ctx := staticContext(m, 10)
	center := ctx.Grid.TileAt(geom.Orientation{})
	ctx.Received.Record(player.RequestItem{Stream: player.Primary, Chunk: 0, Tile: center, Quality: video.Highest}, 0)
	w := buildWindow(ctx, defaultOptions())
	for _, c := range w.cands {
		if c.tile == center && c.chunk == 0 {
			t.Error("already-sent primary tile still a candidate")
		}
	}
}

func TestWindowSpansTwoChunks(t *testing.T) {
	m := testManifest()
	ctx := staticContext(m, 10)
	ctx.PlayFrame = 15 // mid-chunk: the 1 s window covers chunks 0 and 1
	w := buildWindow(ctx, defaultOptions())
	chunks := map[int]bool{}
	for _, c := range w.cands {
		chunks[c.chunk] = true
	}
	if !chunks[0] || !chunks[1] {
		t.Errorf("window should span chunks 0 and 1, got %v", chunks)
	}
}

func TestArrivalFrame(t *testing.T) {
	m := testManifest()
	ctx := staticContext(m, 10)
	w := buildWindow(ctx, defaultOptions())
	if got := w.arrivalFrame(0); got != 0 {
		t.Errorf("arrivalFrame(0) = %d", got)
	}
	if got := w.arrivalFrame(w.deadlines[5]); got != 5 {
		t.Errorf("arrivalFrame(deadline 5) = %d, want 5", got)
	}
	if got := w.arrivalFrame(w.deadlines[5] + time.Millisecond); got != 6 {
		t.Errorf("arrivalFrame(just past 5) = %d, want 6", got)
	}
	if got := w.arrivalFrame(time.Hour); got != w.numFrames {
		t.Errorf("arrivalFrame(far) = %d, want %d", got, w.numFrames)
	}
}

func TestUtilityAt(t *testing.T) {
	m := testManifest()
	ctx := staticContext(m, 10)
	w := buildWindow(ctx, defaultOptions())
	c := w.cands[0]
	floor := c.utilityAt(w, -1, 0)
	early := c.utilityAt(w, int(video.Highest), 0)
	late := c.utilityAt(w, int(video.Highest), w.deadlines[w.numFrames-1]+time.Second)
	mid := c.utilityAt(w, int(video.Highest), w.deadlines[w.numFrames/2])
	if !(early > mid && mid > floor) {
		t.Errorf("utility ordering wrong: early %v mid %v floor %v", early, mid, floor)
	}
	if late != floor {
		t.Errorf("after-window arrival should equal skip floor: %v vs %v", late, floor)
	}
	// Higher quality must never be worth less at equal arrival.
	lowQ := c.utilityAt(w, int(video.Lowest+1), 0)
	if early < lowQ {
		t.Errorf("higher quality worth less: %v < %v", early, lowQ)
	}
}

func TestSchedulerFillsHighQualityWhenFast(t *testing.T) {
	m := testManifest()
	ctx := staticContext(m, 1000)
	w := buildWindow(ctx, defaultOptions())
	s := newScheduler(w, video.Lowest+1, 0)
	list := s.run()
	if len(list) == 0 {
		t.Fatal("empty schedule on fast link")
	}
	// With effectively infinite bandwidth everything lands at top quality.
	for _, e := range list {
		if e.q != int(video.Highest) {
			t.Errorf("tile %d scheduled at q%d on an infinite link", e.c.tile, e.q)
		}
	}
	if len(list) != len(w.cands) {
		t.Errorf("scheduled %d of %d candidates on an infinite link", len(list), len(w.cands))
	}
}

func TestSchedulerSkipsOnSlowLink(t *testing.T) {
	m := testManifest()
	ctx := staticContext(m, 0.8) // slower than even the lowest tier needs
	w := buildWindow(ctx, defaultOptions())
	s := newScheduler(w, video.Lowest+1, 0)
	list := s.run()
	if len(list) >= len(w.cands) {
		t.Errorf("slow link scheduled all %d candidates; expected proactive skips", len(list))
	}
	// Scheduled tiles must (on the estimate) arrive before the window ends.
	at := w.t0
	for _, e := range list {
		at += s.transferTime(e.c.size[e.q])
		if e.c.marginalAt(w, e.q, at) <= 0 {
			t.Errorf("scheduled tile %d arrives too late to matter", e.c.tile)
		}
	}
}

// TestDecideNaNBandwidthIsFloor: a NaN throughput estimate plans as the
// 1 B/s floor, exactly as 0 does. Both rate floors (the window's and the
// masking backlog's) once let NaN through `rate < 1`, and time.Duration of
// NaN made every transfer instant on amd64: 15 items, 11 of them at the top
// quality, where 0 decides 4 and none at the top. +Inf still fits
// everything.
func TestDecideNaNBandwidthIsFloor(t *testing.T) {
	m := testManifest()
	decide := func(mbps float64) []player.RequestItem {
		return New(defaultOptions()).Decide(staticContext(m, mbps))
	}
	floor, nan := decide(0), decide(math.NaN())
	if len(nan) != len(floor) {
		t.Fatalf("NaN decides %d items, 0 decides %d", len(nan), len(floor))
	}
	for i := range floor {
		if nan[i] != floor[i] {
			t.Fatalf("item %d: NaN decides %+v, 0 decides %+v", i, nan[i], floor[i])
		}
	}
	primaries := 0
	for _, it := range decide(math.Inf(1)) {
		if it.Stream != player.Primary {
			continue
		}
		primaries++
		if it.Quality != video.Highest {
			t.Fatalf("+Inf decides %+v below the top quality", it)
		}
	}
	if primaries <= len(floor) {
		t.Errorf("+Inf decides %d primary items, no more than the floor's %d items", primaries, len(floor))
	}
}

func TestSchedulerPrefersCentralTiles(t *testing.T) {
	m := testManifest()
	ctx := staticContext(m, 3)
	w := buildWindow(ctx, defaultOptions())
	s := newScheduler(w, video.Lowest+1, 0)
	list := s.run()
	if len(list) == 0 {
		t.Fatal("no schedule")
	}
	scheduled := map[geom.TileID]bool{}
	for _, e := range list {
		scheduled[e.c.tile] = true
	}
	// The most central candidate must be scheduled; the least central
	// candidates should bear the skips.
	if !scheduled[w.cands[0].tile] {
		t.Error("highest-score candidate not scheduled")
	}
	if len(list) < len(w.cands) {
		skippedScore, scheduledScore := 0.0, 0.0
		var nSkip, nSched int
		for _, c := range w.cands {
			if scheduled[c.tile] {
				scheduledScore += c.full
				nSched++
			} else {
				skippedScore += c.full
				nSkip++
			}
		}
		if nSkip > 0 && nSched > 0 && skippedScore/float64(nSkip) >= scheduledScore/float64(nSched) {
			t.Errorf("skipped tiles more central than scheduled ones: %.2f vs %.2f",
				skippedScore/float64(nSkip), scheduledScore/float64(nSched))
		}
	}
}

func TestSchedulerUtilityNeverDecreases(t *testing.T) {
	m := testManifest()
	for _, mbps := range []float64{1, 3, 8, 20} {
		ctx := staticContext(m, mbps)
		w := buildWindow(ctx, defaultOptions())
		s := newScheduler(w, video.Lowest+1, 0)
		before := s.totalUtility()
		s.run()
		after := s.totalUtility()
		if after < before-1e-9 {
			t.Errorf("mbps %v: scheduling decreased utility %v -> %v", mbps, before, after)
		}
	}
}

func TestSchedulerBaseOffsetDelaysArrivals(t *testing.T) {
	m := testManifest()
	ctx := staticContext(m, 3)
	w1 := buildWindow(ctx, defaultOptions())
	s1 := newScheduler(w1, video.Lowest+1, 0)
	n1 := len(s1.run())
	ctx2 := staticContext(m, 3)
	w2 := buildWindow(ctx2, defaultOptions())
	s2 := newScheduler(w2, video.Lowest+1, 800*time.Millisecond)
	n2 := len(s2.run())
	if n2 > n1 {
		t.Errorf("large masking backlog scheduled more tiles (%d) than none (%d)", n2, n1)
	}
}

func TestPlanMaskingFull360(t *testing.T) {
	m := testManifest()
	ctx := staticContext(m, 10)
	d := NewDefault()
	items, planned := d.planMasking(ctx)
	// 3 s look-ahead from frame 0 covers chunks 0..3.
	if len(items) != 4 {
		t.Fatalf("got %d masking items, want 4", len(items))
	}
	for i, it := range items {
		if !it.Full360 || it.Stream != player.Masking || it.Quality != video.Lowest {
			t.Errorf("item %d malformed: %+v", i, it)
		}
		if it.Chunk != i {
			t.Errorf("masking items out of order: %d at %d", it.Chunk, i)
		}
	}
	if !planned(0, 35) {
		t.Error("full-360 masking should cover every tile")
	}
	// Already-received chunks are not re-requested.
	ctx.Received.Record(player.RequestItem{Stream: player.Masking, Chunk: 0, Full360: true, Quality: video.Lowest}, 0)
	items, _ = d.planMasking(ctx)
	if len(items) != 3 {
		t.Errorf("after receipt, got %d items, want 3", len(items))
	}
}

func TestPlanMaskingTiled(t *testing.T) {
	m := testManifest()
	for c := range m.MaskDisplacement {
		m.MaskDisplacement[c] = 20
	}
	ctx := staticContext(m, 10)
	d := New(Options{Masking: MaskTiled})
	items, planned := d.planMasking(ctx)
	if len(items) == 0 {
		t.Fatal("no tiled masking items")
	}
	grid := ctx.Grid
	for _, it := range items {
		if it.Full360 {
			t.Fatal("tiled masking emitted full-360 item")
		}
		// All fetched tiles within viewport radius + displacement (+ slack
		// for tile extent).
		d := geom.AngularDistance(grid.Center(it.Tile), geom.Orientation{})
		if d > geom.DefaultViewport.RadiusDeg+20+40 {
			t.Errorf("masking tile %d at %v degrees is far outside the bound", it.Tile, d)
		}
		if !planned(it.Chunk, it.Tile) {
			t.Error("planned predicate inconsistent with items")
		}
	}
	// A tile on the opposite side must not be planned.
	back := grid.TileAt(geom.Orientation{Yaw: -179, Pitch: 0})
	if planned(0, back) {
		t.Error("back tile should not be in the tiled masking plan")
	}
}

func TestPlanMaskingNone(t *testing.T) {
	m := testManifest()
	ctx := staticContext(m, 10)
	d := New(Options{Masking: MaskNone})
	items, planned := d.planMasking(ctx)
	if len(items) != 0 || planned(0, 0) {
		t.Error("MaskNone should plan nothing")
	}
}

func TestVariantConfiguration(t *testing.T) {
	d := NewDefault()
	if d.Name() != "Dragonfly" || d.DecisionInterval() != 100*time.Millisecond {
		t.Error("default config wrong")
	}
	if d.StallPolicy() != player.NeverStall {
		t.Error("Dragonfly must never stall")
	}
	perChunk := New(Options{DecisionInterval: time.Second, Name: "PerChunk"})
	if perChunk.Name() != "PerChunk" || perChunk.DecisionInterval() != time.Second {
		t.Error("PerChunk config wrong")
	}
	noMask := New(Options{Masking: MaskNone, Name: "NoMask"})
	if noMask.opts.minPrimaryQuality() != video.Lowest {
		t.Error("NoMask should use all five qualities")
	}
	if NewDefault().opts.minPrimaryQuality() != video.Lowest+1 {
		t.Error("masking variants reserve the lowest quality")
	}
	pspnr := New(Options{Metric: quality.PSPNR})
	if pspnr.opts.Metric != quality.PSPNR {
		t.Error("metric not applied")
	}
}

func TestMaskingStrategyString(t *testing.T) {
	if maskFull360.String() != "full360" || MaskTiled.String() != "tiled" || MaskNone.String() != "none" {
		t.Error("strategy names")
	}
}

// End-to-end: Dragonfly through the playback engine.

func runDragonfly(t *testing.T, d *Dragonfly, mbps float64, head *trace.HeadTrace) *player.Metrics {
	t.Helper()
	m := testManifest()
	met, err := player.Run(player.Config{
		Manifest: m,
		Head:     head,
		Bandwidth: &trace.BandwidthTrace{
			ID: "flat", SamplePeriod: time.Second, Mbps: []float64{mbps},
		},
		Scheme: d,
	})
	if err != nil {
		t.Fatal(err)
	}
	return met
}

func headTrace(d time.Duration, class trace.MotionClass, seed int64) *trace.HeadTrace {
	return trace.GenerateHead(trace.HeadGenParams{UserID: "u", Class: class, Duration: d, Seed: seed})
}

func TestDragonflyEndToEndFastLink(t *testing.T) {
	met := runDragonfly(t, NewDefault(), 100, headTrace(6*time.Second, trace.MotionMedium, 3))
	if met.TotalFrames != 180 {
		t.Fatalf("rendered %d frames, want 180", met.TotalFrames)
	}
	if met.RebufferDuration != 0 || met.StallEvents != 0 {
		t.Error("Dragonfly must not stall")
	}
	if met.IncompleteFrames != 0 {
		t.Errorf("full-360 masking should prevent incomplete frames, got %d", met.IncompleteFrames)
	}
	if met.QualityShare(video.Highest) < 0.5 {
		t.Errorf("fast link should deliver mostly top quality, got %.2f", met.QualityShare(video.Highest))
	}
}

func TestDragonflyEndToEndSlowLink(t *testing.T) {
	met := runDragonfly(t, NewDefault(), 3, headTrace(6*time.Second, trace.MotionMedium, 4))
	if met.TotalFrames != 180 {
		t.Fatalf("rendered %d frames, want 180", met.TotalFrames)
	}
	if met.RebufferDuration != 0 {
		t.Error("Dragonfly must not stall even on slow links")
	}
	if met.IncompleteFrames != 0 {
		t.Errorf("masking should still prevent blanks, got %d incomplete", met.IncompleteFrames)
	}
	// The slow link forces masking/skips in the primary stream.
	if met.PrimarySkipFrames == 0 {
		t.Error("slow link should force some primary skips")
	}
}

func TestDragonflyNoMaskBlanksOnMisprediction(t *testing.T) {
	noMask := New(Options{Masking: MaskNone, Name: "NoMask"})
	met := runDragonfly(t, noMask, 3, headTrace(6*time.Second, trace.MotionHigh, 5))
	if met.RebufferDuration != 0 {
		t.Error("NoMask must not stall")
	}
	if met.IncompleteFrames == 0 {
		t.Error("NoMask under high motion on a slow link should see incomplete frames")
	}
}

func TestDragonflyMaskingReducesBlankVsNoMask(t *testing.T) {
	masked := runDragonfly(t, NewDefault(), 3, headTrace(6*time.Second, trace.MotionHigh, 6))
	noMask := runDragonfly(t, New(Options{Masking: MaskNone, Name: "NoMask"}), 3, headTrace(6*time.Second, trace.MotionHigh, 6))
	if masked.MeanBlankArea() >= noMask.MeanBlankArea() && noMask.MeanBlankArea() > 0 {
		t.Errorf("masking should reduce blank area: %.4f vs %.4f", masked.MeanBlankArea(), noMask.MeanBlankArea())
	}
}

func BenchmarkDragonflyDecide(b *testing.B) {
	m := video.Generate(video.GenParams{ID: "bench", Seed: 2, NumChunks: 10})
	ctx := &player.Context{
		Now:           0,
		PlayFrame:     0,
		Manifest:      m,
		Grid:          m.Grid(),
		Viewport:      geom.DefaultViewport,
		Received:      player.NewReceived(m),
		Predict:       func(time.Duration) geom.Orientation { return geom.Orientation{Yaw: 10, Pitch: 5} },
		PredictedMbps: 12,
		FrameDuration: time.Second / 30,
		FrameDeadline: func(frame int) time.Duration { return time.Duration(frame) * time.Second / 30 },
	}
	d := NewDefault()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Decide(ctx)
	}
}

func TestPlanMaskingScheduled(t *testing.T) {
	m := testManifest()
	for c := range m.MaskDisplacement {
		m.MaskDisplacement[c] = 20
	}
	ctx := staticContext(m, 6)
	d := New(Options{Masking: MaskTiled, MaskScheduled: true, Name: "sched"})
	items, planned := d.planMaskingScheduled(ctx)
	if len(items) == 0 {
		t.Fatal("no scheduled masking items")
	}
	for _, it := range items {
		if it.Stream != player.Masking || it.Full360 || it.Quality != video.Lowest {
			t.Fatalf("malformed masking item: %+v", it)
		}
		if !planned(it.Chunk, it.Tile) {
			t.Error("item outside the planned predicate")
		}
	}
	// The ordering must be utility-driven: the first item lands near the
	// predicted view center (whatever its chunk — ample bandwidth makes
	// same-location tiles across chunks utility-ties).
	d0 := geom.AngularDistance(ctx.Grid.Center(items[0].Tile), geom.Orientation{})
	if d0 > 40 {
		t.Errorf("first scheduled masking tile %v degrees from center", d0)
	}

	plain := New(Options{Masking: MaskTiled})
	plainItems, _ := plain.planMasking(staticContext(m, 6))
	if len(items) > len(plainItems) {
		t.Errorf("scheduler emitted more masking items (%d) than the plain plan (%d)", len(items), len(plainItems))
	}
}

func TestDragonflyTiledSchedEndToEnd(t *testing.T) {
	d := New(Options{Masking: MaskTiled, MaskScheduled: true, Name: "Dragonfly-TiledSched"})
	met := runDragonfly(t, d, 6, headTrace(6*time.Second, trace.MotionMedium, 9))
	if met.TotalFrames != 180 {
		t.Fatalf("rendered %d frames", met.TotalFrames)
	}
	if met.RebufferDuration != 0 {
		t.Error("scheduled masking variant stalled")
	}
}

// TestNonFinitePredictionDecidesAsExact: a predicted orientation with a NaN
// or infinite coordinate overlaps no tile on the exact path, and the table
// path must agree instead of indexing its plane at int(NaN) (a panic) or
// reading the north pole's bucket (a NaN pitch).
func TestNonFinitePredictionDecidesAsExact(t *testing.T) {
	m := video.Generate(video.GenParams{ID: "nan", NumChunks: 3, Seed: 3}) // 12x12
	nan, inf := math.NaN(), math.Inf(1)
	for _, o := range []geom.Orientation{{Yaw: nan}, {Pitch: nan}, {Yaw: inf, Pitch: 10}, {Yaw: 20, Pitch: -inf}} {
		ctx := staticContext(m, 10)
		ctx.Predict = func(time.Duration) geom.Orientation { return o }
		exact := defaultOptions()
		exact.ExactGeometry = true
		got := New(defaultOptions()).Decide(ctx)
		want := New(exact).Decide(ctx)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("prediction %+v: table path decided %v, exact path %v", o, got, want)
		}
		if w := buildWindow(ctx, defaultOptions()); len(w.slab) != 0 {
			t.Errorf("prediction %+v: %d table-path candidates, want none", o, len(w.slab))
		}
	}
}
