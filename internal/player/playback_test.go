package player_test

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"
	"unsafe"

	"dragonfly/internal/core"
	"dragonfly/internal/geom"
	"dragonfly/internal/player"
	"dragonfly/internal/predict"
	"dragonfly/internal/trace"
	"dragonfly/internal/video"
)

// These tests step a Playback in virtual time the way the wire client does
// in wall-clock time: whatever arrived is delivered at its own instant and
// followed by Advance; otherwise Advance runs at NextEvent. No link, no
// sleeping — a session takes microseconds.

// silentScheme never asks for anything; the tests deliver by hand.
type silentScheme struct {
	policy player.StallPolicy
	mbps   []float64 // PredictedMbps seen at each decision
}

func (s *silentScheme) Name() string                    { return "silent" }
func (s *silentScheme) DecisionInterval() time.Duration { return 100 * time.Millisecond }
func (s *silentScheme) StallPolicy() player.StallPolicy { return s.policy }
func (s *silentScheme) Decide(ctx *player.Context) []player.RequestItem {
	s.mbps = append(s.mbps, ctx.PredictedMbps)
	return nil
}

const frameDur = time.Second / 30

func twoChunks() *video.Manifest {
	return video.Generate(video.GenParams{ID: "pb", Rows: 6, Cols: 6, NumChunks: 2, Seed: 5})
}

// stillHead looks at yaw 0, pitch 0 for d, one sample per period.
func stillHead(d, period time.Duration) *trace.HeadTrace {
	return &trace.HeadTrace{UserID: "still", SamplePeriod: period, Samples: make([]geom.Orientation, int(d/period)+1)}
}

func newPlayback(t *testing.T, policy player.StallPolicy, maxWall time.Duration) (*player.Playback, *silentScheme) {
	t.Helper()
	s := &silentScheme{policy: policy}
	pb, err := player.NewPlayback(player.Config{
		Manifest: twoChunks(), Head: stillHead(2*time.Second, 40*time.Millisecond), Scheme: s, MaxWall: maxWall,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pb, s
}

// arrival is one whole chunk (every tile, lowest primary quality) landing
// at one instant.
type arrival struct {
	at    time.Duration
	chunk int
}

// drive steps pb to the end of the session and returns the final instant.
func drive(pb *player.Playback, now time.Duration, arrivals ...arrival) time.Duration {
	for !pb.Over(now) {
		now = pb.NextEvent()
		if len(arrivals) > 0 && arrivals[0].at <= now {
			now = arrivals[0].at
			for tile := 0; tile < 36; tile++ {
				it := player.RequestItem{Chunk: arrivals[0].chunk, Tile: geom.TileID(tile)}
				pb.Deliver(now, it, 1000, time.Millisecond, now)
			}
			arrivals = arrivals[1:]
		}
		pb.Advance(now)
	}
	return now
}

func TestPlaybackStallPolicies(t *testing.T) {
	const (
		first  = 10 * time.Millisecond      // chunk 0 lands: startup
		missed = first + 30*frameDur        // deadline of chunk 1's first frame
		second = 1234567 * time.Microsecond // chunk 1 lands, between control events
		grace  = time.Second                // a NeverStall session starts by then regardless
		wall   = 3 * time.Second            // MaxWall of the truncated case
	)
	both := []arrival{{first, 0}, {second, 1}}
	cases := []struct {
		name     string
		policy   player.StallPolicy
		maxWall  time.Duration
		arrivals []arrival

		wall, startup, rebuffer time.Duration
		stalls                  []player.StallInterval
		frames, skipFrames      int
		truncated               bool
	}{
		{name: "a delivery between events ends the stall at its own instant",
			policy: player.StallOnMissingAny, arrivals: both,
			wall: second + 29*frameDur, startup: first, rebuffer: second - missed,
			stalls: []player.StallInterval{{Start: missed, End: second}}, frames: 60},
		{name: "NeverStall never enters one",
			policy: player.NeverStall, arrivals: both,
			wall: first + 59*frameDur, startup: first, frames: 60,
			// Chunk 1's frames due before it landed render anyway, as skips.
			skipFrames: int((second-missed)/frameDur) + 1},
		{name: "a silent link renders every frame blank with zero rebuffering",
			policy: player.NeverStall,
			wall:   grace + 59*frameDur, startup: grace, frames: 60, skipFrames: 60},
		{name: "Over at MaxWall closes the open stall and truncates",
			policy: player.StallOnMissingAny, maxWall: wall, arrivals: both[:1],
			wall: wall, startup: first, rebuffer: wall - missed, frames: 30, truncated: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pb, _ := newPlayback(t, tc.policy, tc.maxWall)
			met := pb.Finish(drive(pb, 0, tc.arrivals...))
			if met.WallDuration != tc.wall || met.PlayDuration != time.Duration(tc.frames)*frameDur {
				t.Errorf("Finish: wall %v play %v, want %v and %d frames", met.WallDuration, met.PlayDuration, tc.wall, tc.frames)
			}
			if met.StartupDelay != tc.startup {
				t.Errorf("StartupDelay = %v, want %v", met.StartupDelay, tc.startup)
			}
			if met.RebufferDuration != tc.rebuffer || met.Truncated != tc.truncated {
				t.Errorf("rebuffer %v truncated %v, want %v %v", met.RebufferDuration, met.Truncated, tc.rebuffer, tc.truncated)
			}
			wantEvents := len(tc.stalls)
			if tc.truncated {
				wantEvents++ // entered, never resumed: an event without an interval
			}
			if met.StallEvents != wantEvents || len(met.StallIntervals) != len(tc.stalls) ||
				(len(tc.stalls) == 1 && met.StallIntervals[0] != tc.stalls[0]) {
				t.Errorf("stalls: %d events, intervals %v; want %d and %v", met.StallEvents, met.StallIntervals, wantEvents, tc.stalls)
			}
			if met.TotalFrames != tc.frames || met.PrimarySkipFrames != tc.skipFrames || met.IncompleteFrames != tc.skipFrames {
				t.Errorf("frames %d, with skips %d, incomplete %d; want %d, %d, %d",
					met.TotalFrames, met.PrimarySkipFrames, met.IncompleteFrames, tc.frames, tc.skipFrames, tc.skipFrames)
			}
		})
	}
}

// Bytes that crossed the link without yielding a tile are received bytes
// and a throughput sample, and nothing else.
func TestPlaybackTransferredHoldsNothing(t *testing.T) {
	pb, scheme := newPlayback(t, player.NeverStall, 0)
	pb.Advance(0)
	pb.Transferred(125_000, 100*time.Millisecond) // 10 Mbps
	pb.Advance(100 * time.Millisecond)

	want := predict.NewBandwidth(0)
	want.ObserveTransfer(125_000, 100*time.Millisecond)
	if len(scheme.mbps) != 2 || scheme.mbps[0] != 5 || scheme.mbps[1] != want.PredictMbps() {
		t.Errorf("PredictedMbps at the two decisions = %v, want [5 %v]", scheme.mbps, want.PredictMbps())
	}
	if got := pb.Metrics().BytesReceived; got != 125_000 {
		t.Errorf("BytesReceived = %d, want 125000", got)
	}
	if n := pb.Held().Count(); n != 0 {
		t.Errorf("%d tiles held after a transfer that yielded none", n)
	}
	if met := pb.Finish(drive(pb, 100*time.Millisecond)); met.BytesUseful != 0 {
		t.Errorf("BytesUseful = %d, want 0", met.BytesUseful)
	}
}

// A driver that arrives late (a descheduled process, a long write) gets one
// frame, and the next one a frame later: no frame is dropped and none are
// rendered in a burst to catch up.
func TestPlaybackLateAdvanceRendersOneFrame(t *testing.T) {
	pb, _ := newPlayback(t, player.NeverStall, 0)
	met := pb.Metrics()
	for tile := 0; tile < 36; tile++ {
		pb.Deliver(0, player.RequestItem{Tile: geom.TileID(tile)}, 1000, time.Millisecond, 0)
	}
	pb.Advance(0) // startup: frame 0
	late := 10 * frameDur
	for i, step := range []struct {
		at     time.Duration
		frames int
	}{{late, 2}, {late, 2}, {late + frameDur - 1, 2}, {late + frameDur, 3}} {
		if pb.Advance(step.at); met.TotalFrames != step.frames {
			t.Errorf("step %d: %d frames after Advance(%v), want %d", i, met.TotalFrames, step.at, step.frames)
		}
	}
	if next := pb.NextEvent(); next <= late+frameDur || next > late+2*frameDur {
		t.Errorf("NextEvent = %v, want within a frame of %v", next, late+frameDur)
	}
}

// raceEnabled is set under the race detector, which makes sync.Pool drop a
// random quarter of what is Put in it: storage a pool should hand back is
// sometimes built anew there.
var raceEnabled bool

// listScheme asks for the same fetch list at every decision.
type listScheme struct{ items []player.RequestItem }

func (s *listScheme) Name() string                                { return "list" }
func (s *listScheme) DecisionInterval() time.Duration             { return 100 * time.Millisecond }
func (s *listScheme) StallPolicy() player.StallPolicy             { return player.NeverStall }
func (s *listScheme) Decide(*player.Context) []player.RequestItem { return s.items }

// buildScheme builds listScheme's list anew at every decision, in the
// Context's fetch-list buffer, as every registered scheme builds its own.
type buildScheme struct{ listScheme }

func (s *buildScheme) Decide(ctx *player.Context) []player.RequestItem {
	buf := ctx.FetchList()
	*buf = append((*buf)[:0], s.items...)
	return *buf
}

// The decision path allocates nothing per epoch, for either driver: Advance
// refills one Context in place, binds its two method values once and reuses
// its viewport-tile scratch. The head is sampled once a second so the
// predictor's growing history stays out of the measurement.
func TestPlaybackAdvanceDecisionZeroAlloc(t *testing.T) {
	var scheme player.Scheme = core.NewDefault()
	if raceEnabled {
		// Dragonfly borrows its decision scratch from a sync.Pool; a
		// scheme without one leaves the pin on the Playback's own path.
		scheme = &listScheme{items: []player.RequestItem{{Tile: 7}}}
	}
	pb, err := player.NewPlayback(player.Config{
		Manifest: twoChunks(), Head: stillHead(2*time.Second, time.Second), Scheme: scheme,
	})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Duration(0)
	pb.Advance(now)
	// Nine more epochs, 100..900 ms: all inside the startup wait.
	allocs := testing.AllocsPerRun(8, func() {
		now += 100 * time.Millisecond
		if fetch, decided := pb.Advance(now); !decided || len(fetch) == 0 {
			t.Fatalf("no fetch list at %v", now)
		}
	})
	if allocs != 0 {
		t.Errorf("a decision-epoch Advance allocates %v times, want 0", allocs)
	}
}

// Back-to-back sessions over one manifest size its storage once. With the
// collector off, so that the pool keeps what Finish gives back, and on one
// P, so that the second Run's Get looks where the first Run's Put went (a
// goroutine preempted onto another P misses a pool's per-P slot), the first
// Run allocates at least the primary arrival map (chunks × tiles ×
// qualities instants) and a second Run less than that map alone, and less
// than the one fetch list its scheme builds at every decision (every tile
// of every chunk) alone: both fetch-list buffers come from the pool too.
func TestSessionStorageReused(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random quarter of its Puts under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	m := video.Generate(video.GenParams{ID: "reuse", NumChunks: 10, Seed: 3})
	s := &buildScheme{}
	for c := 0; c < m.NumChunks; c++ {
		for tile := 0; tile < m.NumTiles(); tile++ {
			s.items = append(s.items, player.RequestItem{Chunk: c, Tile: geom.TileID(tile)})
		}
	}
	cfg := player.Config{
		Manifest: m, Head: stillHead(11*time.Second, time.Second), Scheme: s,
		Bandwidth: &trace.BandwidthTrace{ID: "flat", SamplePeriod: time.Second, Mbps: []float64{50}},
	}
	bound := uint64(m.NumChunks*m.NumTiles()*video.NumQualities) * uint64(unsafe.Sizeof(time.Duration(0)))
	listBound := uint64(len(s.items)) * uint64(unsafe.Sizeof(player.RequestItem{}))
	var allocated [2]uint64
	for i := range allocated {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		met, err := player.Run(cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if met.BytesReceived == 0 {
			t.Fatal("nothing was delivered")
		}
		allocated[i] = after.TotalAlloc - before.TotalAlloc
	}
	if allocated[0] < bound || allocated[1] >= bound {
		t.Errorf("Runs allocated %d then %d bytes; want the first at least, and the second below, the %d-byte primary arrival map",
			allocated[0], allocated[1], bound)
	}
	if allocated[0] < 2*listBound || allocated[1] >= listBound {
		t.Errorf("Runs allocated %d then %d bytes; want the first at least two, and the second below one, %d-byte fetch list",
			allocated[0], allocated[1], listBound)
	}
}
