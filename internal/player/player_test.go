package player

import (
	"math"
	"testing"
	"time"

	"dragonfly/internal/geom"
	"dragonfly/internal/quality"
	"dragonfly/internal/trace"
	"dragonfly/internal/video"
)

// testScheme is a configurable stub used to exercise the engine.
type testScheme struct {
	name     string
	interval time.Duration
	policy   StallPolicy
	decide   func(ctx *Context) []RequestItem
}

func (s *testScheme) Name() string                    { return s.name }
func (s *testScheme) DecisionInterval() time.Duration { return s.interval }
func (s *testScheme) StallPolicy() StallPolicy        { return s.policy }
func (s *testScheme) Decide(ctx *Context) []RequestItem {
	if s.decide == nil {
		return nil
	}
	return s.decide(ctx)
}

func smallManifest() *video.Manifest {
	return video.Generate(video.GenParams{
		ID: "pv", Rows: 6, Cols: 6, NumChunks: 6,
		TargetQP42Mbps: 1, TargetQP22Mbps: 8, Seed: 5,
	})
}

// headPeriod is the synthetic head traces' sampling period, the HMD's 40 ms
// (paper §4.5).
const headPeriod = 40 * time.Millisecond

func staticHead(d time.Duration) *trace.HeadTrace {
	n := int(d/headPeriod) + 1
	return &trace.HeadTrace{
		UserID:       "static",
		SamplePeriod: headPeriod,
		Samples:      make([]geom.Orientation, n),
	}
}

func flatBandwidth(mbps float64) *trace.BandwidthTrace {
	return &trace.BandwidthTrace{
		ID: "flat", SamplePeriod: time.Second,
		Mbps: []float64{mbps},
	}
}

// fetchEverything requests every tile of every chunk at the given quality.
func fetchEverything(q video.Quality) func(ctx *Context) []RequestItem {
	return func(ctx *Context) []RequestItem {
		var items []RequestItem
		for c := 0; c < ctx.Manifest.NumChunks; c++ {
			for t := 0; t < ctx.Manifest.NumTiles(); t++ {
				items = append(items, RequestItem{Stream: Primary, Chunk: c, Tile: geom.TileID(t), Quality: q})
			}
		}
		return items
	}
}

func TestRunValidatesConfig(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestFullFetchPlaysPerfectly(t *testing.T) {
	m := smallManifest()
	s := &testScheme{name: "all", interval: 100 * time.Millisecond, policy: StallOnMissingAny,
		decide: fetchEverything(video.Highest)}
	met, err := Run(Config{Manifest: m, Head: staticHead(6 * time.Second), Bandwidth: flatBandwidth(1000), Scheme: s})
	if err != nil {
		t.Fatal(err)
	}
	if met.TotalFrames != m.NumFrames() {
		t.Fatalf("rendered %d frames, want %d", met.TotalFrames, m.NumFrames())
	}
	if met.IncompleteFrames != 0 || met.RebufferDuration != 0 {
		t.Fatalf("perfect session had %d incomplete, %v rebuffer", met.IncompleteFrames, met.RebufferDuration)
	}
	if met.PrimarySkipFrames != 0 {
		t.Fatalf("no primary skips expected, got %d", met.PrimarySkipFrames)
	}
	// All viewport tiles at the highest quality.
	if met.QualityShare(video.Highest) < 0.999 {
		t.Errorf("highest-quality share = %v", met.QualityShare(video.Highest))
	}
	if met.MedianScore() < 40 {
		t.Errorf("median score %v suspiciously low for QP22", met.MedianScore())
	}
	if met.Truncated {
		t.Error("session truncated")
	}
}

func TestEmptySchemeBlanksEverythingWithoutStalling(t *testing.T) {
	m := smallManifest()
	s := &testScheme{name: "none", interval: 100 * time.Millisecond, policy: NeverStall}
	cfg := Config{Manifest: m, Head: staticHead(6 * time.Second), Bandwidth: flatBandwidth(10), Scheme: s,
		MaxWall: 20 * time.Second}
	met, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Nothing ever arrives: after the startup grace, the continuous-playback
	// discipline renders every frame fully blank.
	if met.Truncated {
		t.Error("unexpected truncation")
	}
	if met.TotalFrames != m.NumFrames() {
		t.Errorf("rendered %d frames, want all %d", met.TotalFrames, m.NumFrames())
	}
	if met.IncompleteFrames != met.TotalFrames {
		t.Errorf("all frames should be incomplete, got %d/%d", met.IncompleteFrames, met.TotalFrames)
	}
	if met.BlankShare() < 0.999 {
		t.Errorf("blank share = %v, want ~1", met.BlankShare())
	}
	if met.StartupDelay != startupGrace {
		t.Errorf("startup delay = %v, want grace %v", met.StartupDelay, startupGrace)
	}
}

func TestNeverStallRendersBlankAfterStartup(t *testing.T) {
	m := smallManifest()
	// Fetch only chunk 0 fully; later chunks get nothing: playback must
	// continue with blank viewports (continuous playback).
	s := &testScheme{name: "chunk0", interval: 100 * time.Millisecond, policy: NeverStall,
		decide: func(ctx *Context) []RequestItem {
			var items []RequestItem
			for t := 0; t < ctx.Manifest.NumTiles(); t++ {
				items = append(items, RequestItem{Stream: Primary, Chunk: 0, Tile: geom.TileID(t), Quality: video.Lowest})
			}
			return items
		}}
	met, err := Run(Config{Manifest: m, Head: staticHead(6 * time.Second), Bandwidth: flatBandwidth(1000), Scheme: s})
	if err != nil {
		t.Fatal(err)
	}
	if met.TotalFrames != m.NumFrames() {
		t.Fatalf("rendered %d frames, want all %d", met.TotalFrames, m.NumFrames())
	}
	if met.RebufferDuration != 0 || met.StallEvents != 0 {
		t.Error("NeverStall scheme rebuffered")
	}
	// Chunks 1..5 are blank: 5/6 of frames incomplete.
	wantIncomplete := m.NumFrames() * 5 / 6
	if met.IncompleteFrames != wantIncomplete {
		t.Errorf("incomplete frames = %d, want %d", met.IncompleteFrames, wantIncomplete)
	}
	if met.MeanBlankArea() < 0.5 {
		t.Errorf("mean blank area = %v, want mostly blank", met.MeanBlankArea())
	}
}

func TestStallSchemeRebuffersOnLateChunks(t *testing.T) {
	m := smallManifest()
	// Stall policy with a scheme that only requests chunks lazily when the
	// play head reaches them: every chunk boundary forces a stall while the
	// tiles download.
	s := &testScheme{name: "lazy", interval: 100 * time.Millisecond, policy: StallOnMissingAny,
		decide: func(ctx *Context) []RequestItem {
			c := ctx.Manifest.ChunkOfFrame(ctx.PlayFrame)
			var items []RequestItem
			for t := 0; t < ctx.Manifest.NumTiles(); t++ {
				items = append(items, RequestItem{Stream: Primary, Chunk: c, Tile: geom.TileID(t), Quality: video.Lowest})
			}
			return items
		}}
	met, err := Run(Config{Manifest: m, Head: staticHead(6 * time.Second), Bandwidth: flatBandwidth(4), Scheme: s})
	if err != nil {
		t.Fatal(err)
	}
	if met.StallEvents == 0 || met.RebufferDuration == 0 {
		t.Fatalf("lazy stall scheme should rebuffer: events=%d dur=%v", met.StallEvents, met.RebufferDuration)
	}
	if met.RebufferRatio() <= 0 || met.RebufferRatio() >= 1 {
		t.Errorf("rebuffer ratio = %v", met.RebufferRatio())
	}
	if len(met.StallIntervals) != met.StallEvents {
		t.Errorf("stall intervals %d != events %d", len(met.StallIntervals), met.StallEvents)
	}
	// No frame is ever blank under StallOnMissingAny.
	if met.IncompleteFrames != 0 {
		t.Errorf("stall scheme rendered %d incomplete frames", met.IncompleteFrames)
	}
}

func TestMaskingOnlyAvoidsIncomplete(t *testing.T) {
	m := smallManifest()
	s := &testScheme{name: "maskonly", interval: 100 * time.Millisecond, policy: NeverStall,
		decide: func(ctx *Context) []RequestItem {
			var items []RequestItem
			for c := 0; c < ctx.Manifest.NumChunks; c++ {
				items = append(items, RequestItem{Stream: Masking, Chunk: c, Full360: true, Quality: video.Lowest})
			}
			return items
		}}
	met, err := Run(Config{Manifest: m, Head: staticHead(6 * time.Second), Bandwidth: flatBandwidth(100), Scheme: s})
	if err != nil {
		t.Fatal(err)
	}
	if met.TotalFrames != m.NumFrames() {
		t.Fatalf("rendered %d frames", met.TotalFrames)
	}
	if met.IncompleteFrames != 0 {
		t.Errorf("masking stream should avoid incomplete frames, got %d", met.IncompleteFrames)
	}
	// Every rendered viewport tile came from masking.
	if met.MaskingShare() < 0.999 {
		t.Errorf("masking share = %v", met.MaskingShare())
	}
	if met.PrimarySkipFrames != met.TotalFrames {
		t.Errorf("all frames should count as primary-skipped, got %d/%d", met.PrimarySkipFrames, met.TotalFrames)
	}
}

func TestServerRedundancyRule(t *testing.T) {
	m := smallManifest()
	requested := 0
	// Request the same tile at the same quality every epoch: the server
	// must transmit it only once.
	s := &testScheme{name: "dup", interval: 50 * time.Millisecond, policy: NeverStall,
		decide: func(ctx *Context) []RequestItem {
			requested++
			return []RequestItem{
				{Stream: Primary, Chunk: 0, Tile: 0, Quality: video.Highest},
				{Stream: Primary, Chunk: 0, Tile: 0, Quality: video.Highest},
			}
		}}
	met, err := Run(Config{Manifest: m, Head: staticHead(time.Second), Bandwidth: flatBandwidth(1000), Scheme: s,
		MaxWall: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	want := m.TileSize(0, 0, video.Highest)
	if met.BytesReceived != want {
		t.Errorf("received %d bytes, want exactly one copy (%d); scheme asked %d times", met.BytesReceived, want, requested)
	}
}

func TestMaskingUpgradeAllowed(t *testing.T) {
	m := smallManifest()
	phase := 0
	s := &testScheme{name: "upgrade", interval: 50 * time.Millisecond, policy: NeverStall,
		decide: func(ctx *Context) []RequestItem {
			phase++
			if phase == 1 {
				return []RequestItem{{Stream: Masking, Chunk: 0, Tile: 3, Quality: video.Lowest}}
			}
			return []RequestItem{{Stream: Primary, Chunk: 0, Tile: 3, Quality: video.Highest}}
		}}
	met, err := Run(Config{Manifest: m, Head: staticHead(time.Second), Bandwidth: flatBandwidth(1000), Scheme: s,
		MaxWall: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	want := m.TileSize(0, 3, video.Lowest) + m.TileSize(0, 3, video.Highest)
	if met.BytesReceived != want {
		t.Errorf("received %d bytes, want masking+primary = %d", met.BytesReceived, want)
	}
}

func TestPrimaryNeverResent(t *testing.T) {
	m := smallManifest()
	phase := 0
	s := &testScheme{name: "noresend", interval: 50 * time.Millisecond, policy: NeverStall,
		decide: func(ctx *Context) []RequestItem {
			phase++
			if phase == 1 {
				return []RequestItem{{Stream: Primary, Chunk: 0, Tile: 3, Quality: video.Lowest}}
			}
			return []RequestItem{{Stream: Primary, Chunk: 0, Tile: 3, Quality: video.Highest}}
		}}
	met, err := Run(Config{Manifest: m, Head: staticHead(time.Second), Bandwidth: flatBandwidth(1000), Scheme: s,
		MaxWall: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	want := m.TileSize(0, 3, video.Lowest)
	if met.BytesReceived != want {
		t.Errorf("received %d bytes, want only first primary send %d", met.BytesReceived, want)
	}
}

func TestRequestCancellation(t *testing.T) {
	m := smallManifest()
	phase := 0
	// First epoch queues many tiles over a slow link; second epoch cancels
	// them all. Only the in-flight tile completes.
	s := &testScheme{name: "cancel", interval: 100 * time.Millisecond, policy: NeverStall,
		decide: func(ctx *Context) []RequestItem {
			phase++
			if phase == 1 {
				return fetchEverything(video.Highest)(ctx)
			}
			return nil
		}}
	met, err := Run(Config{Manifest: m, Head: staticHead(time.Second), Bandwidth: flatBandwidth(2), Scheme: s,
		MaxWall: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// At 2 Mbps for 5 s at most ~1.25 MB could flow; with cancellation after
	// 100 ms only the in-flight item finishes (~a few KB).
	if met.BytesReceived > m.TileSize(0, 0, video.Highest)+m.TileSize(0, 1, video.Highest) {
		t.Errorf("cancellation ineffective: received %d bytes", met.BytesReceived)
	}
}

func TestWastageAccounting(t *testing.T) {
	m := smallManifest()
	// Static user at yaw 0 never sees the back of the sphere; fetch both a
	// front tile and a back tile — the back tile is pure waste.
	front := m.Grid().TileAt(geom.Orientation{Yaw: 0, Pitch: 0})
	back := m.Grid().TileAt(geom.Orientation{Yaw: -179, Pitch: 0})
	s := &testScheme{name: "waste", interval: 100 * time.Millisecond, policy: NeverStall,
		decide: func(ctx *Context) []RequestItem {
			var items []RequestItem
			for c := 0; c < ctx.Manifest.NumChunks; c++ {
				items = append(items,
					RequestItem{Stream: Primary, Chunk: c, Tile: front, Quality: video.Highest},
					RequestItem{Stream: Primary, Chunk: c, Tile: back, Quality: video.Highest})
			}
			return items
		}}
	met, err := Run(Config{Manifest: m, Head: staticHead(6 * time.Second), Bandwidth: flatBandwidth(1000), Scheme: s})
	if err != nil {
		t.Fatal(err)
	}
	var frontBytes, backBytes int64
	for c := 0; c < m.NumChunks; c++ {
		frontBytes += m.TileSize(c, front, video.Highest)
		backBytes += m.TileSize(c, back, video.Highest)
	}
	if met.BytesReceived != frontBytes+backBytes {
		t.Fatalf("received %d, want %d", met.BytesReceived, frontBytes+backBytes)
	}
	if met.BytesUseful != frontBytes {
		t.Errorf("useful %d, want %d (front tiles only)", met.BytesUseful, frontBytes)
	}
	if met.WastagePct() <= 0 {
		t.Error("wastage should be positive")
	}
}

func TestFullMaskingWastageUsesMinRule(t *testing.T) {
	m := smallManifest()
	s := &testScheme{name: "maskwaste", interval: 100 * time.Millisecond, policy: NeverStall,
		decide: func(ctx *Context) []RequestItem {
			return []RequestItem{{Stream: Masking, Chunk: 0, Full360: true, Quality: video.Lowest}}
		}}
	met, err := Run(Config{Manifest: m, Head: staticHead(time.Second), Bandwidth: flatBandwidth(1000), Scheme: s,
		MaxWall: 90 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	full := m.Full360Size(0, video.Lowest)
	if met.BytesReceived < full {
		t.Fatalf("full-360 masking not delivered")
	}
	// Useful bytes: only the rendered (viewport) share, bounded by the
	// tiled-equivalent encoding of that area.
	if met.BytesUseful <= 0 || met.BytesUseful >= full {
		t.Errorf("useful bytes = %d of %d; want partial credit", met.BytesUseful, full)
	}
}

func TestStartupDelayNotCountedAsRebuffer(t *testing.T) {
	m := smallManifest()
	s := &testScheme{name: "slowstart", interval: 100 * time.Millisecond, policy: StallOnMissingAny,
		decide: fetchEverything(video.Lowest)}
	met, err := Run(Config{Manifest: m, Head: staticHead(6 * time.Second), Bandwidth: flatBandwidth(3), Scheme: s})
	if err != nil {
		t.Fatal(err)
	}
	if met.StartupDelay <= 0 {
		t.Error("startup delay should be positive on a slow link")
	}
}

func TestSkipHeatTracksPeripheralSkips(t *testing.T) {
	m := smallManifest()
	grid := m.Grid()
	center := grid.TileAt(geom.Orientation{Yaw: 0, Pitch: 0})
	// Fetch only the central tile; everything else in the viewport is
	// skipped, so SkipHeat must be zero for the center and positive for
	// other viewport tiles.
	s := &testScheme{name: "centeronly", interval: 100 * time.Millisecond, policy: NeverStall,
		decide: func(ctx *Context) []RequestItem {
			var items []RequestItem
			for c := 0; c < ctx.Manifest.NumChunks; c++ {
				items = append(items, RequestItem{Stream: Primary, Chunk: c, Tile: center, Quality: video.Lowest})
			}
			return items
		}}
	met, err := Run(Config{Manifest: m, Head: staticHead(6 * time.Second), Bandwidth: flatBandwidth(1000), Scheme: s})
	if err != nil {
		t.Fatal(err)
	}
	if met.SkipHeat[center] != 0 {
		t.Errorf("center tile skipped %d times", met.SkipHeat[center])
	}
	skips := int64(0)
	for _, v := range met.SkipHeat {
		skips += v
	}
	if skips == 0 {
		t.Error("peripheral tiles should register skips")
	}
	if met.ViewHeat[center] == 0 {
		t.Error("center tile should register views")
	}
}

func TestMetricsDerivedStats(t *testing.T) {
	m := &Metrics{
		FrameScore:  []float64{30, 40, 50},
		FrameBlank:  []float64{0, 0.5, 1},
		TotalFrames: 3, IncompleteFrames: 1, PrimarySkipFrames: 2,
		RebufferDuration: time.Second, PlayDuration: 3 * time.Second,
		BytesReceived: 100, BytesUseful: 75,
	}
	if got := m.MedianScore(); got != 40 {
		t.Errorf("median = %v", got)
	}
	if got := m.MeanScore(); math.Abs(got-40) > 1e-9 {
		t.Errorf("mean = %v", got)
	}
	if got := m.RebufferRatio(); math.Abs(got-0.25) > 1e-9 {
		t.Errorf("rebuffer ratio = %v", got)
	}
	if got := m.IncompleteFramePct(); math.Abs(got-100.0/3) > 1e-9 {
		t.Errorf("incomplete pct = %v", got)
	}
	if got := m.PrimarySkipFramePct(); math.Abs(got-200.0/3) > 1e-9 {
		t.Errorf("skip pct = %v", got)
	}
	if got := m.WastagePct(); math.Abs(got-25) > 1e-9 {
		t.Errorf("wastage = %v", got)
	}
	if got := m.MeanBlankArea(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("blank area = %v", got)
	}
	if got := m.ScorePercentile(0); got != 30 {
		t.Errorf("p0 = %v", got)
	}
	if got := m.ScorePercentile(100); got != 50 {
		t.Errorf("p100 = %v", got)
	}
}

func TestMetricsZeroSafe(t *testing.T) {
	m := &Metrics{}
	if m.RebufferRatio() != 0 || m.IncompleteFramePct() != 0 || m.WastagePct() != 0 ||
		m.MedianScore() != 0 || m.MeanScore() != 0 || m.MeanBlankArea() != 0 ||
		m.QualityShare(0) != 0 || m.MaskingShare() != 0 || m.BlankShare() != 0 ||
		m.PrimarySkipFramePct() != 0 || m.RenderedViewportTiles() != 0 {
		t.Error("zero metrics should yield zero stats")
	}
}

func TestRequestItemSize(t *testing.T) {
	m := smallManifest()
	it := RequestItem{Stream: Primary, Chunk: 1, Tile: 4, Quality: video.Quality(2)}
	if it.Size(m) != m.TileSize(1, 4, 2) {
		t.Error("tile size mismatch")
	}
	full := RequestItem{Stream: Masking, Chunk: 1, Full360: true, Quality: video.Lowest}
	if full.Size(m) != m.Full360Size(1, video.Lowest) {
		t.Error("full360 size mismatch")
	}
}

func TestRequestItemIn(t *testing.T) {
	m := smallManifest() // 6 chunks of 36 tiles
	for _, tc := range []struct {
		it RequestItem
		in bool
	}{
		{RequestItem{Chunk: 5, Tile: 35, Quality: video.NumQualities - 1}, true},
		{RequestItem{Stream: Masking, Chunk: 5, Full360: true, Tile: 99}, true}, // tile ignored
		{RequestItem{Chunk: 6}, false},
		{RequestItem{Chunk: -1}, false},
		{RequestItem{Tile: 36}, false},
		{RequestItem{Tile: -1}, false},
		{RequestItem{Quality: video.NumQualities}, false},
		{RequestItem{Stream: Masking, Chunk: 6, Full360: true}, false},
		{RequestItem{Stream: Primary, Full360: true, Tile: 36}, false}, // primary state is per tile
	} {
		if got := tc.it.In(m); got != tc.in {
			t.Errorf("%+v.In = %v, want %v", tc.it, got, tc.in)
		}
	}
}

func TestStreamKindString(t *testing.T) {
	if Primary.String() != "primary" || Masking.String() != "masking" {
		t.Error("stream kind names")
	}
}

func TestReceivedState(t *testing.T) {
	m := smallManifest()
	r := NewReceived(m)
	if q, ok := r.BestPrimary(0, 0); ok || q != 0 {
		t.Error("empty state has primary")
	}
	r.Record(RequestItem{Stream: Primary, Chunk: 0, Tile: 0, Quality: 1}, 2*time.Second)
	r.Record(RequestItem{Stream: Primary, Chunk: 0, Tile: 0, Quality: 3}, 4*time.Second)
	if q, ok := r.bestPrimaryBy(0, 0, 3*time.Second); !ok || q != 1 {
		t.Errorf("bestPrimaryBy(3s) = %d,%v", q, ok)
	}
	if q, ok := r.bestPrimaryBy(0, 0, 5*time.Second); !ok || q != 3 {
		t.Errorf("bestPrimaryBy(5s) = %d,%v", q, ok)
	}
	if _, ok := r.bestPrimaryBy(0, 0, time.Second); ok {
		t.Error("too-early lookup succeeded")
	}
	if r.primaryAt[r.pIdx(0, 0, 1)] == notReceived || r.primaryAt[r.pIdx(0, 0, 2)] != notReceived {
		t.Error("exact-variant check wrong")
	}
	r.Record(RequestItem{Stream: Masking, Chunk: 1, Tile: 5, Quality: 0}, time.Second)
	if !r.hasMaskingBy(1, 5, time.Second) || r.hasMaskingBy(1, 5, 500*time.Millisecond) {
		t.Error("tiled masking availability wrong")
	}
	if r.HasMasking(1, 6) {
		t.Error("unfetched tile has masking")
	}
	r.Record(RequestItem{Stream: Masking, Chunk: 2, Full360: true, Quality: 0}, time.Second)
	if !r.hasMaskingBy(2, 17, time.Second) {
		t.Error("full-360 masking should cover every tile")
	}
	if !r.HasFullMasking(2) || r.HasFullMasking(3) {
		t.Error("HasFullMasking wrong")
	}
}

func TestMovingUserChangesViewport(t *testing.T) {
	m := smallManifest()
	// User rotating steadily; fetch-everything scheme; verify ViewHeat is
	// spread across many tiles.
	n := int(6*time.Second/headPeriod) + 1
	samples := make([]geom.Orientation, n)
	for i := range samples {
		samples[i] = geom.Orientation{Yaw: geom.NormalizeYaw(float64(i) * 2), Pitch: 0}
	}
	head := &trace.HeadTrace{UserID: "spin", SamplePeriod: headPeriod, Samples: samples}
	s := &testScheme{name: "all", interval: 100 * time.Millisecond, policy: NeverStall,
		decide: fetchEverything(video.Lowest)}
	met, err := Run(Config{Manifest: m, Head: head, Bandwidth: flatBandwidth(1000), Scheme: s})
	if err != nil {
		t.Fatal(err)
	}
	viewed := 0
	for _, v := range met.ViewHeat {
		if v > 0 {
			viewed++
		}
	}
	if viewed < m.NumTiles()/2 {
		t.Errorf("rotating user viewed only %d tiles", viewed)
	}
}

func TestMetricSelectionAffectsScores(t *testing.T) {
	m := smallManifest()
	s := func() Scheme {
		return &testScheme{name: "all", interval: 100 * time.Millisecond, policy: NeverStall,
			decide: fetchEverything(video.Quality(2))}
	}
	psnr, err := Run(Config{Manifest: m, Head: staticHead(6 * time.Second), Bandwidth: flatBandwidth(1000), Scheme: s(), Metric: quality.PSNR})
	if err != nil {
		t.Fatal(err)
	}
	pspnr, err := Run(Config{Manifest: m, Head: staticHead(6 * time.Second), Bandwidth: flatBandwidth(1000), Scheme: s(), Metric: quality.PSPNR})
	if err != nil {
		t.Fatal(err)
	}
	if pspnr.MedianScore() <= psnr.MedianScore() {
		t.Errorf("PSPNR session score %v should exceed PSNR %v", pspnr.MedianScore(), psnr.MedianScore())
	}
}
