package player

import (
	"testing"
	"time"

	"dragonfly/internal/geom"
	"dragonfly/internal/trace"
	"dragonfly/internal/video"
)

// BenchmarkRenderFrame times what a session does at one frame deadline
// under StallOnMissingAny (Flare, Pano): walk the viewport cap at the head
// trace's orientation, check that every tile in it is renderable, account
// the frame. The session holds every tile of a 12x12 video, so every
// deadline renders; the head keeps moving, so the cap does too.
func BenchmarkRenderFrame(b *testing.B) {
	m := video.Generate(video.GenParams{ID: "render", NumChunks: 10, Seed: 2})
	s := &testScheme{name: "held", interval: 100 * time.Millisecond, policy: StallOnMissingAny}
	p, err := NewPlayback(Config{
		Manifest: m, Scheme: s,
		Head: trace.GenerateHead(trace.HeadGenParams{UserID: "u", Class: trace.MotionMedium, Duration: 11 * time.Second, Seed: 4}),
	})
	if err != nil {
		b.Fatal(err)
	}
	for c := 0; c < m.NumChunks; c++ {
		for t := 0; t < m.NumTiles(); t++ {
			p.received.Record(RequestItem{Chunk: c, Tile: geom.TileID(t), Quality: video.Quality(t % video.NumQualities)}, 0)
		}
	}
	p.Advance(0) // startup: the first frame renders
	if p.stalled {
		b.Fatal("the session did not start")
	}
	frames := m.NumFrames()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Any frame, at its own instant; the per-frame series start over so
		// the benchmark times the frame, not their growth.
		p.playFrame = i % frames
		p.now = time.Duration(p.playFrame) * p.frameDur
		p.met.FrameScore, p.met.FrameBlank = p.met.FrameScore[:0], p.met.FrameBlank[:0]
		p.renderOrStall()
	}
	b.StopTimer()
	if p.stalled || p.met.StallEvents != 0 {
		b.Fatalf("stalled %d times holding every tile", p.met.StallEvents)
	}
}
