package player

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"dragonfly/internal/decoder"
	"dragonfly/internal/geom"
	"dragonfly/internal/trace"
	"dragonfly/internal/video"
)

// randomScheme issues a random-but-valid fetch list each epoch, seeded
// deterministically; used to fuzz engine invariants.
type randomScheme struct {
	rng    *rand.Rand
	policy StallPolicy
}

func (s *randomScheme) Name() string                    { return "random" }
func (s *randomScheme) DecisionInterval() time.Duration { return 100 * time.Millisecond }
func (s *randomScheme) StallPolicy() StallPolicy        { return s.policy }
func (s *randomScheme) Decide(ctx *Context) []RequestItem {
	n := s.rng.Intn(30)
	items := make([]RequestItem, 0, n)
	for i := 0; i < n; i++ {
		it := RequestItem{
			Chunk:   s.rng.Intn(ctx.Manifest.NumChunks),
			Tile:    geom.TileID(s.rng.Intn(ctx.Manifest.NumTiles())),
			Quality: video.Quality(s.rng.Intn(video.NumQualities)),
		}
		if s.rng.Intn(4) == 0 {
			it.Stream = Masking
			it.Quality = video.Lowest
			it.Full360 = s.rng.Intn(2) == 0
		}
		items = append(items, it)
	}
	return items
}

func TestEngineInvariantsUnderRandomSchemes(t *testing.T) {
	m := video.Generate(video.GenParams{ID: "inv", Rows: 4, Cols: 4, NumChunks: 4,
		TargetQP42Mbps: 0.5, TargetQP22Mbps: 4, Seed: 13})
	f := func(seed int64, mbpsRaw uint8, policyRaw uint8) bool {
		mbps := 0.5 + float64(mbpsRaw%40)
		policy := StallPolicy(policyRaw % 3)
		head := trace.GenerateHead(trace.HeadGenParams{
			UserID: "f", Class: trace.MotionClass(seed % 3), Duration: 4 * time.Second, Seed: seed,
		})
		met, err := Run(Config{
			Manifest:  m,
			Head:      head,
			Bandwidth: &trace.BandwidthTrace{ID: "f", SamplePeriod: time.Second, Mbps: []float64{mbps}},
			Scheme:    &randomScheme{rng: rand.New(rand.NewSource(seed)), policy: policy},
			MaxWall:   20 * time.Second,
		})
		if err != nil {
			return false
		}
		// Structural invariants that must hold for any scheme behavior.
		if met.TotalFrames > m.NumFrames() || met.TotalFrames < 0 {
			return false
		}
		if len(met.FrameScore) != met.TotalFrames || len(met.FrameBlank) != met.TotalFrames {
			return false
		}
		if met.BytesUseful > met.BytesReceived || met.BytesUseful < 0 {
			return false
		}
		if met.RebufferDuration < 0 || met.WallDuration < 0 {
			return false
		}
		if policy == NeverStall && met.RebufferDuration != 0 {
			return false
		}
		if policy != NeverStall && met.IncompleteFrames != 0 {
			return false
		}
		if met.IncompleteFrames > met.TotalFrames || met.PrimarySkipFrames > met.TotalFrames {
			return false
		}
		if met.RenderedViewportTiles() < 0 {
			return false
		}
		for _, b := range met.FrameBlank {
			if b < 0 || b > 1 {
				return false
			}
		}
		// Quality + masking + blank shares partition the rendered tiles.
		sum := met.MaskingShare() + met.BlankShare()
		for q := video.Quality(0); q < video.NumQualities; q++ {
			sum += met.QualityShare(q)
		}
		if met.RenderedViewportTiles() > 0 && (sum < 0.999 || sum > 1.001) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestEngineZeroBandwidth(t *testing.T) {
	m := video.Generate(video.GenParams{ID: "zb", Rows: 4, Cols: 4, NumChunks: 2, Seed: 2})
	met, err := Run(Config{
		Manifest:  m,
		Head:      staticHead(2 * time.Second),
		Bandwidth: &trace.BandwidthTrace{ID: "dead", SamplePeriod: time.Second, Mbps: []float64{0.001}},
		Scheme: &testScheme{name: "all", interval: 100 * time.Millisecond, policy: NeverStall,
			decide: fetchEverything(video.Lowest)},
		MaxWall: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Playback still completes (blank) under continuous playback.
	if met.TotalFrames != m.NumFrames() {
		t.Errorf("rendered %d frames on a dead link", met.TotalFrames)
	}
	if met.BlankShare() < 0.9 {
		t.Errorf("dead link should blank nearly everything, got %.2f", met.BlankShare())
	}
}

func TestEngineStallTruncation(t *testing.T) {
	m := video.Generate(video.GenParams{ID: "tr", Rows: 4, Cols: 4, NumChunks: 2, Seed: 3})
	met, err := Run(Config{
		Manifest:  m,
		Head:      staticHead(2 * time.Second),
		Bandwidth: &trace.BandwidthTrace{ID: "dead", SamplePeriod: time.Second, Mbps: []float64{0.001}},
		Scheme: &testScheme{name: "lazy", interval: 100 * time.Millisecond, policy: StallOnMissingAny,
			decide: fetchEverything(video.Lowest)},
		MaxWall: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !met.Truncated {
		t.Error("eternal stall should truncate")
	}
	if met.WallDuration < 5*time.Second {
		t.Errorf("wall duration %v below MaxWall", met.WallDuration)
	}
}

func TestEngineHeadTraceShorterThanVideo(t *testing.T) {
	// A head trace that ends mid-video: the last orientation holds.
	m := video.Generate(video.GenParams{ID: "sh", Rows: 4, Cols: 4, NumChunks: 4, Seed: 4})
	met, err := Run(Config{
		Manifest:  m,
		Head:      staticHead(time.Second),
		Bandwidth: flatBandwidth(100),
		Scheme: &testScheme{name: "all", interval: 100 * time.Millisecond, policy: NeverStall,
			decide: fetchEverything(video.Lowest)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if met.TotalFrames != m.NumFrames() {
		t.Errorf("short head trace broke playback: %d frames", met.TotalFrames)
	}
}

func TestEngineSingleChunkVideo(t *testing.T) {
	m := video.Generate(video.GenParams{ID: "one", Rows: 4, Cols: 4, NumChunks: 1, Seed: 5})
	met, err := Run(Config{
		Manifest:  m,
		Head:      staticHead(time.Second),
		Bandwidth: flatBandwidth(100),
		Scheme: &testScheme{name: "all", interval: 100 * time.Millisecond, policy: StallOnMissingAny,
			decide: fetchEverything(video.Highest)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if met.TotalFrames != m.ChunkFrames {
		t.Errorf("single-chunk video rendered %d frames", met.TotalFrames)
	}
}

func TestDecoderModelDelaysAvailability(t *testing.T) {
	m := video.Generate(video.GenParams{ID: "dec", Rows: 4, Cols: 4, NumChunks: 3,
		TargetQP42Mbps: 1, TargetQP22Mbps: 8, Seed: 6})
	run := func(throughputMBps float64) *Metrics {
		met, err := Run(Config{
			Manifest:  m,
			Head:      staticHead(3 * time.Second),
			Bandwidth: flatBandwidth(20),
			Scheme: &testScheme{name: "all", interval: 100 * time.Millisecond, policy: NeverStall,
				decide: fetchEverything(video.Highest)},
			Decoder: &decoder.Model{ThroughputMBps: throughputMBps},
		})
		if err != nil {
			t.Fatal(err)
		}
		return met
	}
	fast := run(0)    // disabled: paper's assumption
	slow := run(0.02) // pathological 20 kB/s decoder
	if slow.MedianScore() >= fast.MedianScore() {
		t.Errorf("pathological decoder should hurt quality: %.2f vs %.2f",
			slow.MedianScore(), fast.MedianScore())
	}
	if fast.IncompleteFrames != 0 {
		t.Error("fast decoder should not blank")
	}
	if slow.IncompleteFrames == 0 {
		t.Error("starved decoder should blank frames")
	}
}

func TestMaskInterpolationFillsHoles(t *testing.T) {
	m := video.Generate(video.GenParams{ID: "interp", Rows: 6, Cols: 6, NumChunks: 3,
		TargetQP42Mbps: 1, TargetQP22Mbps: 8, Seed: 8})
	grid := m.Grid()
	center := grid.TileAt(geom.Orientation{})
	// Fetch masking for every viewport tile except the central one: with
	// interpolation the hole is synthesized from neighbors.
	scheme := func() Scheme {
		return &testScheme{name: "holes", interval: 100 * time.Millisecond, policy: NeverStall,
			decide: func(ctx *Context) []RequestItem {
				var items []RequestItem
				for c := 0; c < ctx.Manifest.NumChunks; c++ {
					for _, id := range ctx.Viewport.Tiles(ctx.Grid, geom.Orientation{}) {
						if id == center {
							continue
						}
						items = append(items, RequestItem{Stream: Masking, Chunk: c, Tile: id, Quality: video.Lowest})
					}
				}
				return items
			}}
	}
	plain, err := Run(Config{Manifest: m, Head: staticHead(3 * time.Second), Bandwidth: flatBandwidth(50),
		Scheme: scheme()})
	if err != nil {
		t.Fatal(err)
	}
	interp, err := Run(Config{Manifest: m, Head: staticHead(3 * time.Second), Bandwidth: flatBandwidth(50),
		Scheme: scheme(), MaskInterpolation: true})
	if err != nil {
		t.Fatal(err)
	}
	if plain.IncompleteFrames == 0 {
		t.Fatal("hole scheme should blank without interpolation")
	}
	if interp.IncompleteFrames >= plain.IncompleteFrames {
		t.Errorf("interpolation did not reduce incomplete frames: %d vs %d",
			interp.IncompleteFrames, plain.IncompleteFrames)
	}
	if interp.RenderedInterpolated == 0 {
		t.Error("no interpolated renders recorded")
	}
	if interp.MedianScore() <= plain.MedianScore() {
		t.Errorf("interpolation should raise quality over black holes: %.2f vs %.2f",
			interp.MedianScore(), plain.MedianScore())
	}
}

func TestStallCascadeOnHeadMovement(t *testing.T) {
	// A user who turns around mid-video under a stall policy: when the
	// stall ends is governed by the *current* viewport, so tiles fetched
	// for the old viewport do not resume playback (the paper's cascade).
	m := video.Generate(video.GenParams{ID: "cascade", Rows: 6, Cols: 6, NumChunks: 4,
		TargetQP42Mbps: 1, TargetQP22Mbps: 8, Seed: 17})
	n := int(4*time.Second/headPeriod) + 1
	samples := make([]geom.Orientation, n)
	for i := range samples {
		if time.Duration(i)*headPeriod > 1500*time.Millisecond {
			samples[i] = geom.Orientation{Yaw: -170} // turned around
		}
	}
	head := &trace.HeadTrace{UserID: "turner", SamplePeriod: headPeriod, Samples: samples}

	// The scheme only ever fetches the front tiles: once the user turns,
	// the requirement can never be met again and the session truncates
	// mid-stall.
	frontOnly := &testScheme{name: "front", interval: 100 * time.Millisecond, policy: StallOnMissingAny,
		decide: func(ctx *Context) []RequestItem {
			var items []RequestItem
			for c := 0; c < ctx.Manifest.NumChunks; c++ {
				for _, id := range ctx.Viewport.Tiles(ctx.Grid, geom.Orientation{}) {
					items = append(items, RequestItem{Stream: Primary, Chunk: c, Tile: id, Quality: video.Lowest})
				}
			}
			return items
		}}
	met, err := Run(Config{Manifest: m, Head: head, Bandwidth: flatBandwidth(50), Scheme: frontOnly,
		MaxWall: 8 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !met.Truncated {
		t.Error("turned-away user should leave the front-only scheme stalled forever")
	}
	if met.TotalFrames == 0 {
		t.Error("the pre-turn frames should have rendered")
	}
	if met.TotalFrames >= m.NumFrames() {
		t.Error("playback should not have completed")
	}
	if met.StallEvents == 0 {
		t.Error("no stall recorded")
	}
}
