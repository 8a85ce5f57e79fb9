// Micro-benchmarks for the per-decision fast path: Decide across the
// masking variants (table-driven vs exact geometry) on a static context and
// on one taken mid-session, the Flare, Pano and Two-tier baselines' Decide,
// and the raw overlap queries
// underneath them (sampled spherical-cap integration, the cap walk, the
// precomputed table). Run with -benchmem: the Decide benchmarks must report
// zero allocs/op in steady state — internal/core's TestDecideAllocationFree
// and internal/baseline's Test*DecideAllocationFree pin the same property
// as hard tests, and cmd/benchdiff fails a 0 -> N change. Two more
// of the family call unexported code and so live in their packages:
// BenchmarkScoreSlab (internal/core) and BenchmarkRenderFrame
// (internal/player); scripts/bench.sh and scripts/ci.sh run them alongside.
package dragonfly_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"dragonfly/internal/baseline"
	"dragonfly/internal/core"
	"dragonfly/internal/geom"
	"dragonfly/internal/netem"
	"dragonfly/internal/obs"
	"dragonfly/internal/player"
	"dragonfly/internal/proto"
	"dragonfly/internal/server"
	"dragonfly/internal/trace"
	"dragonfly/internal/video"
)

var (
	perfManifestOnce sync.Once
	perfManifestVal  *video.Manifest
)

func perfManifest() *video.Manifest {
	perfManifestOnce.Do(func() {
		perfManifestVal = video.Generate(video.GenParams{ID: "perf", Seed: 2, NumChunks: 10})
		for c := range perfManifestVal.MaskDisplacement {
			perfManifestVal.MaskDisplacement[c] = 20
		}
	})
	return perfManifestVal
}

// perfContext drifts the predicted orientation with time so repeated
// decisions exercise changing candidate sets, not one cached shape.
func perfContext(m *video.Manifest, mbps float64) *player.Context {
	return &player.Context{
		Manifest: m,
		Grid:     m.Grid(),
		Viewport: geom.DefaultViewport,
		Received: player.NewReceived(m),
		Predict: func(at time.Duration) geom.Orientation {
			return geom.Orientation{Yaw: 20 * at.Seconds(), Pitch: 5}
		},
		PredictedMbps: mbps,
		FrameDuration: time.Second / 30,
		FrameDeadline: func(frame int) time.Duration { return time.Duration(frame) * time.Second / 30 },
	}
}

// benchDecide times a scheme's steady-state refinement on the drifting
// context: one 3 s sweep of decisions first, so every scratch arena has
// reached the capacity the timed sweeps need.
func benchDecide(b *testing.B, s player.Scheme) {
	ctx := perfContext(perfManifest(), 12)
	for i := 0; i < 30; i++ {
		ctx.Now = time.Duration(i) * 100 * time.Millisecond
		s.Decide(ctx)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.Now = time.Duration(i%30) * 100 * time.Millisecond
		s.Decide(ctx)
	}
}

// The paper's default configuration (full-360° masking).
func BenchmarkDecideFull360(b *testing.B) { benchDecide(b, core.NewDefault()) }

// Tiled masking, plain chunk order.
func BenchmarkDecideTiled(b *testing.B) {
	benchDecide(b, core.New(core.Options{Masking: core.MaskTiled}))
}

// Tiled masking ordered by the §3.1 utility scheduler.
func BenchmarkDecideTiledScheduled(b *testing.B) {
	benchDecide(b, core.New(core.Options{Masking: core.MaskTiled, MaskScheduled: true}))
}

// The pre-table behavior: every overlap re-samples the sphere. The gap to
// BenchmarkDecideFull360 is the overlap table's end-to-end win.
func BenchmarkDecideExactGeometry(b *testing.B) {
	benchDecide(b, core.New(core.Options{ExactGeometry: true}))
}

// midSessionProbe runs fn in place of one decision of a live simulated
// session, handing it the engine's own context: the received set, the
// regression predictor and the frame deadlines are what the session built
// up to that point, not a static stand-in.
type midSessionProbe struct {
	player.Scheme
	at, n int
	fn    func(*player.Context)
}

func (p *midSessionProbe) Decide(ctx *player.Context) []player.RequestItem {
	if p.n++; p.n == p.at {
		p.fn(ctx)
	}
	return p.Scheme.Decide(ctx)
}

// BenchmarkDecideMidSession is the micro-benchmark that explains the
// benchmark's core.decide_us_p50.full360: the static context of
// BenchmarkDecideFull360 holds nothing yet, predicts a link that fits
// everything and so yields a short list that is never repaired, while a
// session's decisions run on a link that does not fit the top quality. This
// one repeats the 70th decision (t = 6.9 s) of a session over the
// highest-rate Table 3 video (v27, 12x12, 49.6 Mbps at QP22) on a flat
// 16 Mbps link — about 45 candidates, about 43 of them listed, reported as
// cands/op and listed/op — on the live context.
func BenchmarkDecideMidSession(b *testing.B) {
	e := video.Table3[len(video.Table3)-1]
	m := video.Generate(video.GenParams{
		ID: e.ID, NumChunks: 10,
		TargetQP42Mbps: e.QP42Mbps, TargetQP22Mbps: e.QP22Mbps,
		MotionLevel: e.MotionLevel, Seed: e.Seed,
	})
	d := core.NewDefault()
	probe := &midSessionProbe{Scheme: d, at: 70, fn: func(ctx *player.Context) {
		reg := obs.NewRegistry()
		d.SetObs(reg)
		d.Decide(ctx)
		d.SetObs(nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.Decide(ctx)
		}
		b.StopTimer()
		b.ReportMetric(float64(reg.Counter("core_candidates").Value()), "cands/op")
		b.ReportMetric(float64(reg.Counter("core_listed").Value()), "listed/op")
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
	if probe.n < probe.at {
		b.Fatalf("session ended after %d decisions, before the probe at %d", probe.n, probe.at)
	}
}

// Flare's refinement: four chunks of viewport plus periphery, sorted by
// centrality.
func BenchmarkFlareDecide(b *testing.B) {
	benchDecide(b, baseline.NewFlare(baseline.FlareOptions{}))
}

// Pano's per-chunk commitment on a reused Context: every op is the
// decision at the start of the next chunk, which commits the one chunk
// that has entered its 3 s look-ahead and re-emits the look-ahead's plans
// (4 chunks × 144 tiles). When the video runs out, a fresh instance's first
// decision (the opening four commitments and the plans' sizing) runs with
// the timer stopped.
func BenchmarkPanoDecide(b *testing.B) {
	m := perfManifest()
	ctx := perfContext(m, 12)
	warm := baseline.NewPano(baseline.PanoOptions{}) // sizes both fetch lists
	warm.Decide(ctx)
	warm.Decide(ctx)
	var p *baseline.Pano
	chunk := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p == nil || chunk+3 >= m.NumChunks-1 {
			b.StopTimer()
			p, chunk = baseline.NewPano(baseline.PanoOptions{}), 0
			ctx.PlayFrame, ctx.Now = 0, 0
			p.Decide(ctx)
			b.StartTimer()
		}
		chunk++
		ctx.PlayFrame = m.FirstFrame(chunk)
		ctx.Now = ctx.FrameDeadline(ctx.PlayFrame)
		p.Decide(ctx)
	}
}

// Two-tier's refinement between commitments: the base stream's 3 s of
// full-360° chunks and the committed enhancement plans re-emitted.
func BenchmarkTwoTierDecide(b *testing.B) {
	benchDecide(b, baseline.NewTwoTier())
}

// The cap walk behind the player's per-frame viewport, Flare's tile sets
// and the tiled-masking discovery: which of the 144 tiles a 50° cap
// touches, centered at pitches −30…30° (mid), 60…80° (high) and on or
// beside a pole (polar). The walk skips the rows and columns the cap cannot
// reach: mid is where that removes the most; high and polar caps reach a
// pole, so every column is walked, and high is where the fewest rows go.
func BenchmarkTilesInCap(b *testing.B) {
	g := perfManifest().Grid()
	buf := make([]geom.TileID, 0, g.NumTiles())
	for _, bc := range []struct {
		name    string
		pitches []float64
	}{
		{"mid", []float64{-30, -20, -10, 0, 10, 20, 30}},
		{"high", []float64{60, 65, 70, 75, 80}},
		{"polar", []float64{90, 87, -85, -90}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				o := geom.Orientation{Yaw: float64(i%360) - 180, Pitch: bc.pitches[i%len(bc.pitches)]}
				buf = g.AppendTilesInCap(buf[:0], o, 50)
			}
		})
	}
}

// One full-grid location pass, exact path: hoist the cap query once, then
// integrate the 4x4 sample lattice of every tile.
func BenchmarkOverlapCapExact(b *testing.B) {
	g := perfManifest().Grid()
	n := g.NumTiles()
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		o := geom.Orientation{Yaw: float64(i%360) - 180, Pitch: 20}
		q := geom.NewCapQuery(o, 75)
		for id := 0; id < n; id++ {
			sink += g.OverlapCapQ(geom.TileID(id), q)
		}
	}
	_ = sink
}

// BenchmarkOverlapRoIPlaneBuild builds the DefaultRoIs location-score
// plane of the 12×12 grid from scratch: what the first session over a
// tiling (or sim.Pool's pre-warm) pays once per process.
func BenchmarkOverlapRoIPlaneBuild(b *testing.B) {
	g := perfManifest().Grid()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		geom.NewOverlapTable(g, geom.TableParams{}).RoIPlane(geom.DefaultRoIs)
	}
}

// BenchmarkManyConnStream is the many-connection macro benchmark behind
// the shared tile store: 8 concurrent sessions over in-process pipe
// connections (netem.PipeListener, unshaped) each stream every tile of
// the perf manifest from ONE server. Steady-state send cost is the
// store's serve-by-reference path — pre-framed buffers, vectored writes,
// no per-send serialization or CRC — so the reported MB/s tracks how much
// concurrent traffic one server can push. Fresh sessions each iteration
// keep the per-connection dedup from short-circuiting the sends.
func BenchmarkManyConnStream(b *testing.B) {
	m := perfManifest()
	srv := server.New(m)
	lst := netem.NewPipeListener(netem.Link{})
	ctx, cancel := context.WithCancel(context.Background())
	srvDone := make(chan error, 1)
	go func() { srvDone <- srv.Serve(ctx, lst) }()
	defer func() {
		cancel()
		lst.Close()
		<-srvDone
	}()

	tiles := m.NumTiles()
	items := make([]player.RequestItem, 0, m.NumChunks*tiles)
	var payloadBytes int64
	for c := 0; c < m.NumChunks; c++ {
		for tl := 0; tl < tiles; tl++ {
			it := player.RequestItem{Stream: player.Primary, Chunk: c, Tile: geom.TileID(tl), Quality: 2}
			items = append(items, it)
			payloadBytes += it.Size(m)
		}
	}
	const sessions = 8
	b.SetBytes(payloadBytes * sessions)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		errs := make(chan error, sessions)
		for s := 0; s < sessions; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := streamSession(lst, items); err != nil {
					errs <- err
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			b.Fatal(err)
		}
	}
}

// streamSession runs one client session: handshake, one request for every
// item, drain the tiles, goodbye. Reads go through the pooled
// ReadMessageBuf path, like the real client receiver.
func streamSession(lst *netem.PipeListener, items []player.RequestItem) error {
	conn, err := lst.Dial()
	if err != nil {
		return err
	}
	defer conn.Close()
	if err := proto.WriteHello(conn, proto.Hello{VideoID: "perf"}); err != nil {
		return err
	}
	var buf []byte
	msg, buf, err := proto.ReadMessageBuf(conn, buf)
	if err != nil {
		return err
	}
	if msg.Type != proto.MsgManifest {
		return fmt.Errorf("expected manifest, got type %d", msg.Type)
	}
	if err := proto.WriteRequest(conn, proto.Request{Generation: 1, Items: items}); err != nil {
		return err
	}
	for got := 0; got < len(items); {
		msg, buf, err = proto.ReadMessageBuf(conn, buf)
		if err != nil {
			return err
		}
		switch msg.Type {
		case proto.MsgTileData:
			got++
		case proto.MsgPing:
		default:
			return fmt.Errorf("unexpected message type %d", msg.Type)
		}
	}
	return proto.WriteBye(conn)
}

// The same full-grid pass through the precomputed table: one orientation
// quantization, then a run header and an array read per tile. No session
// reads a one-radius plane by tile id; this prices the table's read path.
func BenchmarkOverlapTableLookup(b *testing.B) {
	g := perfManifest().Grid()
	pl := geom.SharedTable(g, geom.TableParams{}).Plane(75)
	n := g.NumTiles()
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		o := geom.Orientation{Yaw: float64(i%360) - 180, Pitch: 20}
		l := pl.Lookup(o)
		for id := 0; id < n; id++ {
			sink += l.Overlap(geom.TileID(id))
		}
	}
	_ = sink
}
