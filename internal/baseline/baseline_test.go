package baseline

import (
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
		ID: "base", Rows: 6, Cols: 6, NumChunks: 6,
		TargetQP42Mbps: 1, TargetQP22Mbps: 8, Seed: 21,
	})
}

func testContext(m *video.Manifest, mbps float64) *player.Context {
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

func runScheme(t *testing.T, s player.Scheme, mbps float64, seed int64) *player.Metrics {
	t.Helper()
	m := testManifest()
	met, err := player.Run(player.Config{
		Manifest:  m,
		Head:      trace.GenerateHead(trace.HeadGenParams{UserID: "u", Class: trace.MotionMedium, Duration: 6 * time.Second, Seed: seed}),
		Bandwidth: &trace.BandwidthTrace{ID: "flat", SamplePeriod: time.Second, Mbps: []float64{mbps}},
		Scheme:    s,
	})
	if err != nil {
		t.Fatal(err)
	}
	return met
}

func TestFlareDefaults(t *testing.T) {
	f := NewFlare(FlareOptions{})
	if f.Name() != "Flare" || f.DecisionInterval() != 100*time.Millisecond ||
		f.StallPolicy() != player.StallOnMissingAny {
		t.Error("Flare defaults wrong")
	}
	v := NewFlare(FlareOptions{Lookahead: time.Second})
	if v.Name() != "Flare-1s" {
		t.Error("name override failed")
	}
}

func TestFlareDecideCoversViewportAndPeriphery(t *testing.T) {
	m := testManifest()
	ctx := testContext(m, 10)
	f := NewFlare(FlareOptions{})
	items := f.Decide(ctx)
	if len(items) == 0 {
		t.Fatal("empty decision")
	}
	chunks := map[int]bool{}
	vpTiles := map[geom.TileID]bool{}
	for _, id := range ctx.Viewport.Tiles(ctx.Grid, geom.Orientation{}) {
		vpTiles[id] = true
	}
	peripheryFound := false
	for _, it := range items {
		if it.Stream != player.Primary || it.Full360 {
			t.Fatal("Flare is single-stream tile-based")
		}
		chunks[it.Chunk] = true
		if !vpTiles[it.Tile] {
			peripheryFound = true
		}
	}
	// 3 s look-ahead: chunks 0..3.
	for c := 0; c <= 3; c++ {
		if !chunks[c] {
			t.Errorf("chunk %d missing from look-ahead", c)
		}
	}
	if !peripheryFound {
		t.Error("no periphery tiles fetched")
	}
}

func TestFlareUrgentFetchUsesFeasibleQuality(t *testing.T) {
	m := testManifest()
	ctx := testContext(m, 0.05) // nearly dead link: urgent fetches drop to minimum
	f := NewFlare(FlareOptions{})
	items := f.Decide(ctx)
	if len(items) == 0 {
		t.Fatal("empty decision")
	}
	// First items are the urgent current-viewport fetches at low quality.
	if items[0].Chunk != 0 {
		t.Errorf("first item should target the current chunk, got %d", items[0].Chunk)
	}
	if items[0].Quality != video.Lowest {
		t.Errorf("urgent fetch on a dead link picked quality %d", items[0].Quality)
	}
}

func TestFlareQualityScalesWithBandwidth(t *testing.T) {
	m := testManifest()
	slow := NewFlare(FlareOptions{}).Decide(testContext(m, 2))
	fast := NewFlare(FlareOptions{}).Decide(testContext(m, 60))
	avg := func(items []player.RequestItem) float64 {
		s := 0.0
		for _, it := range items {
			s += float64(it.Quality)
		}
		return s / float64(len(items))
	}
	if avg(fast) <= avg(slow) {
		t.Errorf("quality did not scale with bandwidth: fast %.2f slow %.2f", avg(fast), avg(slow))
	}
}

func TestPanoSendsFull360(t *testing.T) {
	m := testManifest()
	ctx := testContext(m, 10)
	p := NewPano(PanoOptions{})
	items := p.Decide(ctx)
	perChunk := map[int]map[geom.TileID]bool{}
	for _, it := range items {
		if it.Stream != player.Primary {
			t.Fatal("Pano is single-stream")
		}
		if perChunk[it.Chunk] == nil {
			perChunk[it.Chunk] = map[geom.TileID]bool{}
		}
		perChunk[it.Chunk][it.Tile] = true
	}
	for c, tiles := range perChunk {
		if len(tiles) != m.NumTiles() {
			t.Errorf("chunk %d: %d tiles sent, want full 360° (%d)", c, len(tiles), m.NumTiles())
		}
	}
}

func TestPanoViewportGetsHigherQuality(t *testing.T) {
	m := testManifest()
	ctx := testContext(m, 10)
	p := NewPano(PanoOptions{})
	items := p.Decide(ctx)
	center := geom.Orientation{}
	var vpQ, outQ, vpN, outN float64
	for _, it := range items {
		if it.Chunk != 0 {
			continue
		}
		if geom.AngularDistance(ctx.Grid.Center(it.Tile), center) <= ctx.Viewport.RadiusDeg {
			vpQ += float64(it.Quality)
			vpN++
		} else {
			outQ += float64(it.Quality)
			outN++
		}
	}
	if vpN == 0 || outN == 0 {
		t.Fatal("no tiles classified")
	}
	if vpQ/vpN <= outQ/outN {
		t.Errorf("viewport quality %.2f not above outside %.2f", vpQ/vpN, outQ/outN)
	}
}

func TestPanoNeverRefines(t *testing.T) {
	m := testManifest()
	ctx := testContext(m, 10)
	p := NewPano(PanoOptions{})
	// Copied: the list is valid only until the next Decide.
	first := append([]player.RequestItem(nil), p.Decide(ctx)...)
	// Move the prediction; chunk 0 assignment must not change.
	ctx.Predict = func(time.Duration) geom.Orientation { return geom.Orientation{Yaw: 120} }
	second := p.Decide(ctx)
	firstC0 := map[player.RequestItem]bool{}
	for _, it := range first {
		if it.Chunk == 0 {
			firstC0[it] = true
		}
	}
	for _, it := range second {
		if it.Chunk == 0 && !firstC0[it] {
			t.Fatal("Pano revised a committed chunk")
		}
	}
}

// TestPanoDecideAllocationFree pins what Pano keeps as scratch: once the
// first decision has sized the session's chunk plans and the Context's
// fetch lists, a decision allocates nothing — one that commits no new
// chunk and re-emits the committed plans, and one that commits a chunk.
func TestPanoDecideAllocationFree(t *testing.T) {
	m := testManifest()
	ctx := testContext(m, 10)
	p := NewPano(PanoOptions{})
	want := append([]player.RequestItem(nil), p.Decide(ctx)...)
	if len(want) < 3*m.NumTiles() {
		t.Fatalf("first decision lists %d items, want the look-ahead's chunks in full", len(want))
	}
	frame := 0
	if n := testing.AllocsPerRun(100, func() {
		// Play through the first chunk: the look-ahead reaches no new one.
		frame = (frame + 1) % (m.ChunkFrames / 2)
		ctx.PlayFrame = frame
		ctx.Now = ctx.FrameDeadline(frame)
		p.Decide(ctx)
	}); n != 0 {
		t.Errorf("Pano.Decide allocated %v per run with no new chunk to commit", n)
	}
	ctx.PlayFrame, ctx.Now = 0, 0
	got := p.Decide(ctx)
	if len(got) != len(want) {
		t.Fatalf("re-emitted %d items, first decision %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("item %d re-emitted as %+v, first decision %+v", i, got[i], want[i])
		}
	}

	// Forget every commitment and play the video through, a decision per
	// chunk: every one of them commits a chunk.
	commits := 0
	if n := testing.AllocsPerRun(20, func() {
		clear(p.plans)
		for c := 0; c < m.NumChunks; c++ {
			ctx.PlayFrame = m.FirstFrame(c)
			ctx.Now = ctx.FrameDeadline(ctx.PlayFrame)
			p.Decide(ctx)
		}
		commits = 0
		for _, plan := range p.plans {
			if plan.n != 0 {
				commits++
			}
		}
	}); n != 0 {
		t.Errorf("Pano.Decide allocated %v per played-through video committing its chunks", n)
	}
	if commits != m.NumChunks {
		t.Errorf("the played-through video committed %d chunks, want %d", commits, m.NumChunks)
	}
}

// TestTwoTierDecideAllocationFree pins Two-tier's steady state: once its
// look-ahead's chunks are committed, a decision re-emits their plans into
// the Context's fetch list and allocates nothing.
func TestTwoTierDecideAllocationFree(t *testing.T) {
	ctx := flareSession(8)
	tt := NewTwoTier()
	step := 0
	decide := func() {
		// Refine through the first chunk: no new chunk to commit.
		ctx.Now = time.Duration(step%10) * 100 * time.Millisecond
		ctx.PlayFrame = (step % 10) * 3
		step++
		tt.Decide(ctx)
	}
	for i := 0; i < 10; i++ {
		decide()
	}
	if n := testing.AllocsPerRun(80, decide); n != 0 {
		t.Errorf("TwoTier.Decide allocated %v per run in steady state", n)
	}
}

// TestPassiveSkipDecideAllocationFree pins PassiveSkip's steady state at
// zero allocations per decision, like Flare's.
func TestPassiveSkipDecideAllocationFree(t *testing.T) {
	ctx := flareSession(8)
	p := NewPassiveSkip()
	step := 0
	decide := func() {
		ctx.Now = time.Duration(step%40) * 100 * time.Millisecond
		ctx.PlayFrame = (step % 40) * 3
		step++
		p.Decide(ctx)
	}
	for i := 0; i < 40; i++ { // one full sweep sizes every scratch buffer
		decide()
	}
	if n := testing.AllocsPerRun(80, decide); n != 0 {
		t.Errorf("PassiveSkip.Decide allocated %v per run in steady state", n)
	}
}

func TestPanoNames(t *testing.T) {
	if NewPano(PanoOptions{}).Name() != "Pano" {
		t.Error("Pano name")
	}
	if NewPano(PanoOptions{Metric: quality.PSPNR}).Name() != "Pano-PSPNR" {
		t.Error("Pano-PSPNR name")
	}
	if NewPano(PanoOptions{}).DecisionInterval() != time.Second {
		t.Error("Pano decides per chunk")
	}
}

func TestTwoTierStreams(t *testing.T) {
	m := testManifest()
	ctx := testContext(m, 10)
	tt := NewTwoTier()
	if tt.StallPolicy() != player.StallOnMissingMasking {
		t.Error("Two-tier stalls on missing base stream")
	}
	items := tt.Decide(ctx)
	maskChunks := map[int]bool{}
	primQ := map[video.Quality]bool{}
	for _, it := range items {
		if it.Stream == player.Masking {
			if !it.Full360 || it.Quality != video.Lowest {
				t.Fatal("base stream must be full-360° lowest quality")
			}
			maskChunks[it.Chunk] = true
		} else {
			primQ[it.Quality] = true
		}
	}
	for c := 0; c <= 3; c++ {
		if !maskChunks[c] {
			t.Errorf("base chunk %d missing", c)
		}
	}
	if len(primQ) != 1 {
		t.Errorf("enhancement should use one uniform quality, got %d", len(primQ))
	}
	for q := range primQ {
		if q == video.Lowest {
			t.Error("enhancement must be above masking quality")
		}
	}
}

func TestTwoTierCommitsOnce(t *testing.T) {
	m := testManifest()
	ctx := testContext(m, 10)
	tt := NewTwoTier()
	tt.Decide(ctx)
	ctx.Predict = func(time.Duration) geom.Orientation { return geom.Orientation{Yaw: 90} }
	second := tt.Decide(ctx)
	for _, it := range second {
		if it.Stream == player.Primary && it.Chunk == 0 {
			d := geom.AngularDistance(ctx.Grid.Center(it.Tile), geom.Orientation{})
			if d > ctx.Viewport.RadiusDeg+25 {
				t.Fatal("Two-tier revised chunk 0 toward the new prediction")
			}
		}
	}
}

func TestPassiveSkipBehaviour(t *testing.T) {
	p := NewPassiveSkip()
	if p.StallPolicy() != player.NeverStall || p.DecisionInterval() != 100*time.Millisecond {
		t.Error("PassiveSkip policy wrong")
	}
	m := testManifest()
	ctx := testContext(m, 10)
	items := p.Decide(ctx)
	sawMask := false
	uniform := map[video.Quality]bool{}
	for _, it := range items {
		if it.Stream == player.Masking {
			sawMask = true
			continue
		}
		uniform[it.Quality] = true
	}
	if !sawMask {
		t.Error("PassiveSkip must fetch the masking stream")
	}
	if len(uniform) != 1 {
		t.Errorf("PassiveSkip primary should be uniform quality, got %v", uniform)
	}
	// Deadline ordering: primary items non-decreasing in chunk.
	lastChunk := -1
	for _, it := range items {
		if it.Stream != player.Primary {
			continue
		}
		if it.Chunk < lastChunk {
			t.Fatal("primary items not deadline ordered")
		}
		lastChunk = it.Chunk
	}
}

// End-to-end sanity: all baselines complete sessions on a moderate link.
func TestBaselinesEndToEnd(t *testing.T) {
	schemes := []func() player.Scheme{
		func() player.Scheme { return NewFlare(FlareOptions{}) },
		func() player.Scheme { return NewPano(PanoOptions{}) },
		func() player.Scheme { return NewTwoTier() },
		func() player.Scheme { return NewPassiveSkip() },
	}
	for _, mk := range schemes {
		s := mk()
		met := runScheme(t, s, 8, 31)
		if met.TotalFrames == 0 {
			t.Errorf("%s rendered no frames", s.Name())
		}
		if met.MedianScore() <= 0 {
			t.Errorf("%s produced no quality scores", s.Name())
		}
		if s.StallPolicy() == player.NeverStall && met.RebufferDuration != 0 {
			t.Errorf("%s stalled despite NeverStall", s.Name())
		}
		if s.StallPolicy() == player.StallOnMissingAny && met.IncompleteFrames != 0 {
			t.Errorf("%s rendered incomplete frames despite stalling policy", s.Name())
		}
	}
}

func TestStallSchemesRebufferOnDips(t *testing.T) {
	// A link that dies for a while mid-session forces stall schemes to
	// rebuffer but leaves skip schemes playing.
	m := testManifest()
	mbps := make([]float64, 6)
	for i := range mbps {
		mbps[i] = 6
	}
	// The link dies from t=1s to t=4s, before the look-ahead could buffer
	// the whole (short) test video.
	mbps[1], mbps[2], mbps[3] = 0.05, 0.05, 0.05
	bw := &trace.BandwidthTrace{ID: "dip", SamplePeriod: time.Second, Mbps: mbps}
	head := trace.GenerateHead(trace.HeadGenParams{UserID: "u", Class: trace.MotionMedium, Duration: 6 * time.Second, Seed: 7})

	run := func(s player.Scheme) *player.Metrics {
		met, err := player.Run(player.Config{Manifest: m, Head: head, Bandwidth: bw, Scheme: s})
		if err != nil {
			t.Fatal(err)
		}
		return met
	}
	flare := run(NewFlare(FlareOptions{}))
	passive := run(NewPassiveSkip())
	if flare.RebufferDuration == 0 {
		t.Error("Flare should rebuffer across a dead link period")
	}
	if passive.RebufferDuration != 0 {
		t.Error("PassiveSkip must never rebuffer")
	}
}

func TestFlarePeripheryQualityDrop(t *testing.T) {
	m := testManifest()
	ctx := testContext(m, 60) // ample: viewport reaches top quality
	f := NewFlare(FlareOptions{})
	items := f.Decide(ctx)
	center := geom.Orientation{}
	var vpMin video.Quality = video.NumQualities
	var perMax video.Quality = -1
	for _, it := range items {
		if it.Chunk != 1 { // a clean future chunk (chunk 0 mixes urgent fetches)
			continue
		}
		d := geom.AngularDistance(ctx.Grid.Center(it.Tile), center)
		if d <= ctx.Viewport.RadiusDeg {
			if it.Quality < vpMin {
				vpMin = it.Quality
			}
		} else if it.Quality > perMax {
			perMax = it.Quality
		}
	}
	if perMax < 0 || vpMin == video.NumQualities {
		t.Skip("no periphery/viewport split in this layout")
	}
	if perMax > vpMin {
		t.Errorf("periphery quality %d above viewport minimum %d", perMax, vpMin)
	}
}

func TestTwoTierBudgetAccountsForMasking(t *testing.T) {
	// With bandwidth barely above the base-stream rate, the enhancement
	// quality must stay low; with ample bandwidth it rises.
	m := testManifest()
	quality := func(mbps float64) video.Quality {
		tt := NewTwoTier()
		items := tt.Decide(testContext(m, mbps))
		for _, it := range items {
			if it.Stream == player.Primary {
				return it.Quality
			}
		}
		t.Fatalf("no enhancement items at %v Mbps", mbps)
		return 0
	}
	lo := quality(1.5)
	hi := quality(40)
	if lo >= hi {
		t.Errorf("enhancement quality did not scale with bandwidth: %d vs %d", lo, hi)
	}
	if lo == video.Lowest {
		t.Errorf("enhancement must stay above masking quality, got %d", lo)
	}
}

func TestPanoGroupsShareQuality(t *testing.T) {
	m := testManifest()
	ctx := testContext(m, 10)
	p := NewPano(PanoOptions{})
	items := p.Decide(ctx)
	// Rebuild the chunk-0 groups and verify all members of each group were
	// requested at one quality.
	byTile := map[geom.TileID]video.Quality{}
	for _, it := range items {
		if it.Chunk == 0 {
			byTile[it.Tile] = it.Quality
		}
	}
	for _, group := range video.GroupTiles(m, 0, video.DefaultGroupCount) {
		q, seen := video.Quality(0), false
		for _, id := range group {
			got, ok := byTile[id]
			if !ok {
				t.Fatalf("tile %d missing from Pano's full-360 send", id)
			}
			if !seen {
				q, seen = got, true
			} else if got != q {
				t.Fatalf("group with mixed qualities: %d vs %d", got, q)
			}
		}
	}
}
