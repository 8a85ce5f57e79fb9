package client

import (
	"context"
	"io"
	"net"
	"testing"
	"time"

	"dragonfly/internal/chaos"
	"dragonfly/internal/core"
	"dragonfly/internal/fleettest"
	"dragonfly/internal/player"
	"dragonfly/internal/proto"
	"dragonfly/internal/server"
	"dragonfly/internal/video"
)

// newCrashBackend is a server process that can be SIGKILLed and restarted
// on the same address mid-stream (fleettest.Backend.Restart): every live
// server-side connection dies instantly, no goodbye, no drain, and the
// replacement instance starts cold. The only thing that survives a crash
// is what the client holds — which is exactly what the resume protocol
// must be able to rebuild from.
func newCrashBackend(t *testing.T, m *video.Manifest) *fleettest.Backend {
	b := fleettest.NewBackend(context.Background(), "live", m, chaosLink,
		func(s *server.Server) { s.Heartbeat = 100 * time.Millisecond })
	t.Cleanup(b.Kill)
	return b
}

// TestPlayResilientSurvivesServerRestart crashes the serving process twice
// mid-stream. The session must complete continuously, the restarted (cold)
// server must rebuild its dedup state purely from the client's held-tile
// bitmap, and no primary tile may ever be transmitted twice — summed across
// every server instance that ran.
func TestPlayResilientSurvivesServerRestart(t *testing.T) {
	m := liveManifest()
	rig := newCrashBackend(t, m)

	for _, at := range []time.Duration{300 * time.Millisecond, 900 * time.Millisecond} {
		timer := time.AfterFunc(at, rig.Restart)
		defer timer.Stop()
	}

	met, err := PlayResilient(rig.Dial, "live", liveHead(4*time.Second), core.NewDefault(), PlayOptions{
		Reconnect: ReconnectPolicy{
			MaxAttempts: 8,
			BaseDelay:   20 * time.Millisecond,
			MaxDelay:    200 * time.Millisecond,
			ReadTimeout: 400 * time.Millisecond,
			Seed:        42,
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	if met.TotalFrames != m.NumFrames() {
		t.Fatalf("rendered %d frames, want %d", met.TotalFrames, m.NumFrames())
	}
	if met.RebufferDuration != 0 {
		t.Errorf("NeverStall session rebuffered %v across restarts", met.RebufferDuration)
	}
	if met.Truncated {
		t.Error("session truncated")
	}
	if met.Disconnects < 2 {
		t.Errorf("Disconnects = %d, want >= 2 (one per crash)", met.Disconnects)
	}

	// Summed across every instance that ever ran: a duplicate primary sent
	// by the restarted server shows up here.
	c, g := rig.Totals()
	if g != 3 {
		t.Fatalf("ran %d server instances, want 3", g)
	}
	// The replacement instances started with zero state; their knowledge of
	// what the client holds can only have come from resume summaries.
	if c.Resumes < 2 {
		t.Errorf("resumes across instances = %d, want >= 2", c.Resumes)
	}
	if c.ResumedItems <= 0 {
		t.Errorf("ResumedItems = %d, want > 0", c.ResumedItems)
	}
	maxPrimaries := int64(m.NumChunks * m.NumTiles())
	if c.PrimarySent > maxPrimaries {
		t.Errorf("%d primaries sent for %d slots: a restarted server re-sent held tiles", c.PrimarySent, maxPrimaries)
	}
	checkAccounting(t, met)
}

// TestPlayResilientSurvivesRestartAndCorruption is the combined chaos run of
// ISSUE.md: bit flips and a truncation corrupt the stream while the server
// process is killed and restarted mid-session. No corrupt tile may be
// rendered (the frame CRC tears the link down; the resume bitmap re-fetches
// the loss), no primary is ever sent twice, and playback completes without
// stalls outside the fault windows.
func TestPlayResilientSurvivesRestartAndCorruption(t *testing.T) {
	m := liveManifest()
	// Bit flips in the 31st and 91st writes, a silent truncation of the 61st.
	if err := chaos.Arm(
		chaos.Rule{Site: "netem.link.write", Kind: chaos.FaultCorrupt, After: 30, Every: 60, Count: 2},
		chaos.Rule{Site: "netem.link.write", Kind: chaos.FaultPartial, After: 60, Count: 1},
	); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(chaos.Disarm)
	rig := newCrashBackend(t, m)
	timer := time.AfterFunc(850*time.Millisecond, rig.Restart)
	defer timer.Stop()

	met, err := PlayResilient(rig.Dial, "live", liveHead(4*time.Second), core.NewDefault(), PlayOptions{
		Reconnect: ReconnectPolicy{
			MaxAttempts: 8,
			BaseDelay:   20 * time.Millisecond,
			MaxDelay:    200 * time.Millisecond,
			ReadTimeout: 400 * time.Millisecond,
			Seed:        42,
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	if met.TotalFrames != m.NumFrames() {
		t.Fatalf("rendered %d frames, want %d", met.TotalFrames, m.NumFrames())
	}
	if met.RebufferDuration != 0 {
		t.Errorf("session rebuffered %v under corruption chaos", met.RebufferDuration)
	}
	if met.Truncated {
		t.Error("session truncated")
	}
	// Each corruption (and the crash) costs the link: the client must have
	// torn down and recovered, never rendering a corrupted payload.
	if n := chaos.Injections("netem.link.write"); n != 3 {
		t.Errorf("link faults injected = %d, want the 3 armed", n)
	}
	if met.Disconnects < 3 {
		t.Errorf("Disconnects = %d, want >= 3", met.Disconnects)
	}
	c, _ := rig.Totals()
	maxPrimaries := int64(m.NumChunks * m.NumTiles())
	if c.PrimarySent > maxPrimaries {
		t.Errorf("%d primaries sent for %d slots: corruption chaos caused duplicate sends", c.PrimarySent, maxPrimaries)
	}
	if c.Resumes < 3 {
		t.Errorf("resumes = %d, want >= 3", c.Resumes)
	}
	checkAccounting(t, met)
}

// TestCorruptTileDroppedAndRefetched exercises the tile-checksum layer the
// frame CRC cannot: a (fake) server sends a frame that is perfectly valid on
// the wire but whose payload does not match the manifest checksum — a
// corrupt cache or disk read on the server side. The client must drop the
// tile (never rendering it), count it, and re-fetch it on a later decide
// cycle.
func TestCorruptTileDroppedAndRefetched(t *testing.T) {
	m := liveManifest()
	clientConn, srvConn := net.Pipe()
	defer clientConn.Close()

	go func() {
		defer srvConn.Close()
		msg, err := proto.ReadMessage(srvConn)
		if err != nil || msg.Type != proto.MsgHello {
			return
		}
		if err := proto.WriteManifest(srvConn, m); err != nil {
			return
		}
		sent := make(map[player.RequestItem]bool)
		corrupted := false
		for {
			msg, err := proto.ReadMessage(srvConn)
			if err != nil || msg.Type == proto.MsgBye {
				return
			}
			if msg.Type != proto.MsgRequest {
				continue
			}
			for _, it := range msg.Request.Items {
				key := it
				key.Quality = 0 // dedup per slot, not per quality
				if sent[key] {
					continue
				}
				payload := make([]byte, it.Size(m))
				if !corrupted && it.Stream == player.Primary {
					// One payload with valid framing but content that does
					// not match the manifest checksum. The slot is NOT
					// marked sent, so a later request re-sends it clean.
					corrupted = true
					bad := make([]byte, len(payload))
					if len(bad) > 0 {
						bad[0] = 0xFF
					}
					if err := proto.WriteTileData(srvConn, proto.TileData{Item: it, Payload: bad}); err != nil {
						return
					}
					continue
				}
				sent[key] = true
				if err := proto.WriteTileData(srvConn, proto.TileData{Item: it, Payload: payload}); err != nil {
					return
				}
			}
		}
	}()

	met, err := Play(clientConn, "live", liveHead(4*time.Second), core.NewDefault(), PlayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if met.TotalFrames != m.NumFrames() {
		t.Fatalf("rendered %d frames, want %d", met.TotalFrames, m.NumFrames())
	}
	if met.CorruptTiles != 1 {
		t.Errorf("CorruptTiles = %d, want exactly 1", met.CorruptTiles)
	}
	if met.CorruptFrames != 0 {
		t.Errorf("CorruptFrames = %d; the frame itself was valid", met.CorruptFrames)
	}
	checkAccounting(t, met)
}

// TestPlayRetriesBusyServer is the admission-control acceptance run: the
// (N+1)th session against a MaxConns-saturated server is fast-rejected with
// a retryable busy error; the client backs off, and once a slot frees it
// completes normally. Real TCP, because the fast-reject is written before
// the server reads the hello — which needs a buffered transport (on an
// unbuffered pipe both sides would block writing at each other).
func TestPlayRetriesBusyServer(t *testing.T) {
	m := liveManifest()
	srv := server.New(m)
	srv.Heartbeat = 100 * time.Millisecond
	srv.MaxConns = 1

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = srv.Serve(ctx, l) }()
	addr := l.Addr().String()

	// Occupy the only slot with a raw session, released shortly.
	holdClient, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := proto.WriteHello(holdClient, proto.Hello{VideoID: "live"}); err != nil {
		t.Fatal(err)
	}
	// The manifest is sent after admission: once it is here the slot is
	// taken, whichever session goroutine the scheduler runs first.
	if msg, err := proto.ReadMessage(holdClient); err != nil || msg.Type != proto.MsgManifest {
		t.Fatalf("holder handshake: type %d, err %v", msg.Type, err)
	}
	go func() { _, _ = io.Copy(io.Discard, holdClient) }()
	release := time.AfterFunc(300*time.Millisecond, func() {
		_ = proto.WriteBye(holdClient)
		holdClient.Close()
	})
	defer release.Stop()

	met, err := PlayResilient(func() (net.Conn, error) {
		return net.Dial("tcp", addr)
	}, "live", liveHead(4*time.Second), core.NewDefault(), PlayOptions{
		Reconnect: ReconnectPolicy{
			MaxAttempts: 10,
			BaseDelay:   50 * time.Millisecond,
			MaxDelay:    200 * time.Millisecond,
			ReadTimeout: 400 * time.Millisecond,
			Seed:        3,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if met.TotalFrames != m.NumFrames() {
		t.Fatalf("rendered %d frames, want %d", met.TotalFrames, m.NumFrames())
	}
	if met.BusyRejects < 1 {
		t.Errorf("BusyRejects = %d, want >= 1", met.BusyRejects)
	}
	if c := srv.Counters(); c.RejectedConns < 1 {
		t.Errorf("server RejectedConns = %d, want >= 1", c.RejectedConns)
	}
	checkAccounting(t, met)
}
