package fleettest

import (
	"context"
	"net"
	"testing"
	"time"

	"dragonfly/internal/leaktest"
	"dragonfly/internal/netem"
	"dragonfly/internal/player"
	"dragonfly/internal/proto"
	"dragonfly/internal/server"
	"dragonfly/internal/video"
)

func testManifest() *video.Manifest {
	return video.Generate(video.GenParams{ID: "rig", Rows: 4, Cols: 4, NumChunks: 2, Seed: 9})
}

// The deadline keeps a busy reject that meets no reader from wedging a
// handler on the unbuffered pipe.
func testServer(s *server.Server) { s.WriteTimeout = 250 * time.Millisecond }

// newTestBackend's caller defers Kill after leaktest.Check, so the check
// runs once the backend is down.
func newTestBackend() *Backend {
	return NewBackend(context.Background(), "s0", testManifest(), netem.Link{}, testServer)
}

// probe runs one health probe against b: MsgPing out, status pong back.
func probe(t *testing.T, b *Backend) {
	t.Helper()
	c, err := b.Dial()
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if err := proto.WritePing(c); err != nil {
		t.Fatalf("write ping: %v", err)
	}
	if msg, err := proto.ReadMessage(c); err != nil || msg.Type != proto.MsgPing || msg.Ping == nil {
		t.Fatalf("probe reply: %+v, err %v", msg, err)
	}
}

// openSession dials b and completes a handshake, returning the live conn.
func openSession(t *testing.T, b *Backend) net.Conn {
	t.Helper()
	c, err := b.Dial()
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	if err := proto.WriteHello(c, proto.Hello{VideoID: "rig"}); err != nil {
		t.Fatalf("write hello: %v", err)
	}
	if msg, err := proto.ReadMessage(c); err != nil || msg.Type != proto.MsgManifest {
		t.Fatalf("handshake reply: %+v, err %v", msg, err)
	}
	return c
}

// TestKillRefusesDialsAndSeversConns: a killed process refuses dials like a
// closed port, and a session that was mid-stream sees its conn die under a
// read — no goodbye frame.
func TestKillRefusesDialsAndSeversConns(t *testing.T) {
	defer leaktest.Check(t)()
	b := newTestBackend()
	defer b.Kill()
	live := openSession(t, b)

	b.Kill()
	if c, err := b.Dial(); err == nil {
		c.Close()
		t.Fatal("dial to a killed backend succeeded")
	}
	_ = live.SetReadDeadline(time.Now().Add(2 * time.Second))
	for {
		msg, err := proto.ReadMessage(live)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Fatal("conn of a killed backend still open after 2 s")
			}
			break // severed
		}
		if msg.Type == proto.MsgBye {
			t.Fatal("killed backend said goodbye; a kill is abrupt")
		}
	}
	b.Kill() // down already: a no-op, not a hang
}

// fetchTile asks the session on c for one primary tile, reads it, and ends
// the session. The server's Bye follows its count of the tile, so Totals
// includes it once fetchTile returns.
func fetchTile(t *testing.T, c net.Conn, it player.RequestItem) {
	t.Helper()
	if err := proto.WriteRequest(c, proto.Request{Generation: 1, Items: []player.RequestItem{it}}); err != nil {
		t.Fatalf("write request: %v", err)
	}
	_ = c.SetReadDeadline(time.Now().Add(2 * time.Second))
	var got bool
	for {
		msg, err := proto.ReadMessage(c)
		if err != nil {
			t.Fatalf("fetching tile %+v: %v", it, err)
		}
		switch msg.Type {
		case proto.MsgTileData:
			if msg.TileData.Item != it {
				t.Fatalf("got tile %+v, want %+v", msg.TileData.Item, it)
			}
			got = true
			if err := proto.WriteBye(c); err != nil {
				t.Fatalf("write bye: %v", err)
			}
		case proto.MsgBye:
			if !got {
				t.Fatalf("session ended without tile %+v", it)
			}
			return
		}
	}
}

// TestRestartIsColdAndTotalsRemember: the restarted instance is a new
// server with no sessions, which re-sends to a plain hello a tile the dead
// instance had sent; Totals still counts what the dead one did, and the
// registry — the thing a balancer scrapes — is the same across the restart.
func TestRestartIsColdAndTotalsRemember(t *testing.T) {
	defer leaktest.Check(t)()
	b := newTestBackend()
	defer b.Kill()
	probe(t, b)
	tile := player.RequestItem{Stream: player.Primary, Chunk: 1, Tile: 5, Quality: 2}
	fetchTile(t, openSession(t, b), tile)
	if tot, n := b.Totals(); n != 1 || tot.Probes != 1 || tot.PrimarySent != 1 {
		t.Fatalf("before restart: totals %+v over %d instances, want 1 probe and 1 primary over 1", tot, n)
	}
	dead, reg := b.cur.srv, b.Reg

	b.Restart()
	if s := b.cur.srv; s == dead || s.ActiveConns() != 0 {
		t.Fatalf("restart kept the old instance (%v) or its %d sessions", s == dead, s.ActiveConns())
	}
	if tot, n := b.Totals(); n != 2 || tot.Probes != 1 || tot.PrimarySent != 1 {
		t.Errorf("after restart: totals %+v over %d instances, want the dead instance's probe and primary over 2", tot, n)
	}
	fetchTile(t, openSession(t, b), tile)
	probe(t, b)
	if tot, _ := b.Totals(); tot.Probes != 2 || tot.PrimarySent != 2 {
		t.Errorf("after the new instance's probe and re-send: %+v, want 2 probes and 2 primaries", tot)
	}
	if b.Reg != reg || reg.Counter("srv_probes").Value() != 2 {
		t.Errorf("registry not shared across the restart: srv_probes = %d, want 2", reg.Counter("srv_probes").Value())
	}
}

// TestDrainBusyRejectsNextDial: after Drain the live session is left alone
// and the next dial is accepted, then fast-rejected with a retryable busy
// error before the server reads a byte.
func TestDrainBusyRejectsNextDial(t *testing.T) {
	defer leaktest.Check(t)()
	b := newTestBackend()
	defer b.Kill()
	live := openSession(t, b)

	b.Drain()
	c, err := b.Dial()
	if err != nil {
		t.Fatalf("dial to a draining backend refused: %v (drain rejects after accept)", err)
	}
	defer c.Close()
	msg, err := proto.ReadMessage(c)
	if err != nil || msg.Type != proto.MsgError || !proto.IsBusyText(msg.Error) {
		t.Fatalf("draining backend answered %+v, err %v; want a busy error", msg, err)
	}
	if tot, _ := b.Totals(); tot.RejectedConns != 1 {
		t.Errorf("RejectedConns = %d, want 1", tot.RejectedConns)
	}
	if err := proto.WriteBye(live); err != nil {
		t.Errorf("in-flight session was cut by Drain: %v", err)
	}
}

// TestFleetCloseLeavesNoGoroutines: a fleet that has routed a session,
// lost a member and got it back tears down completely — balancer, probe
// loops, accept loops, session handlers.
func TestFleetCloseLeavesNoGoroutines(t *testing.T) {
	defer leaktest.Check(t)()
	f, err := NewFleet(3, testManifest(), netem.Link{}, func(_ string, s *server.Server) { testServer(s) })
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	if _, err := f.Dial("nope", 0); err == nil {
		t.Error("dial of an unknown address succeeded")
	}
	c, err := f.Front.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := proto.WriteHello(c, proto.Hello{VideoID: "rig"}); err != nil {
		t.Fatal(err)
	}
	if msg, err := proto.ReadMessage(c); err != nil || msg.Type != proto.MsgManifest {
		t.Fatalf("handshake through the balancer: %+v, err %v", msg, err)
	}
	f.Backends[1].Kill()
	f.Backends[1].Restart()
	if _, n := f.Totals(); n != 4 {
		t.Errorf("fleet instances = %d, want 4 (3 members, 1 restart)", n)
	}

	f.Close()
	if _, err := f.Front.Dial(); err == nil {
		t.Error("balancer front still accepting after Close")
	}
	if c, err := f.Dial("s0", 0); err == nil {
		c.Close()
		t.Error("backend still accepting after Close")
	}
}
