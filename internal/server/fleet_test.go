package server

import (
	"context"
	"net"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"dragonfly/internal/geom"
	"dragonfly/internal/obs"
	"dragonfly/internal/player"
	"dragonfly/internal/proto"
	"dragonfly/internal/store"
	"dragonfly/internal/video"
)

// openSession completes a hello handshake against a handler running on the
// server side of a fresh pipe and returns the client conn plus the
// handler's exit channel.
func openSession(t *testing.T, s *Server) (net.Conn, chan error) {
	t.Helper()
	c, srv := net.Pipe()
	done := make(chan error, 1)
	go func() {
		defer srv.Close()
		done <- s.handleConn(context.Background(), srv)
	}()
	go func() { _ = proto.WriteHello(c, proto.Hello{VideoID: "srv"}) }()
	if msg, err := proto.ReadMessage(c); err != nil || msg.Type != proto.MsgManifest {
		t.Fatalf("handshake: %v / %+v", err, msg)
	}
	return c, done
}

func TestHandleConnProbe(t *testing.T) {
	m := testManifest()
	s := New(m)

	probe := func() *proto.Message {
		t.Helper()
		c, srv := net.Pipe()
		defer c.Close()
		go func() {
			defer srv.Close()
			_ = s.handleConn(context.Background(), srv)
		}()
		go func() { _ = proto.WritePing(c) }()
		msg, err := proto.ReadMessage(c)
		if err != nil {
			t.Fatalf("read probe reply: %v", err)
		}
		return msg
	}

	// Idle server: pong, not draining, zero active sessions (the probe's
	// own admission slot is excluded).
	msg := probe()
	if msg.Type != proto.MsgPing || msg.Ping == nil {
		t.Fatalf("probe reply = %+v, want status pong", msg)
	}
	if msg.Ping.Draining || msg.Ping.ActiveConns != 0 {
		t.Fatalf("idle pong = %+v, want !draining 0 conns", *msg.Ping)
	}

	// With a session in flight the pong reports it.
	c1, done1 := openSession(t, s)
	defer c1.Close()
	msg = probe()
	if msg.Ping == nil || msg.Ping.ActiveConns != 1 {
		t.Fatalf("pong with one session = %+v, want 1 conn", msg.Ping)
	}
	if tally := s.Counters(); tally.Probes != 2 {
		t.Fatalf("Probes = %d, want 2", tally.Probes)
	}

	// A draining server busy-rejects the probe before reading it; probers
	// read that as "alive but unroutable".
	s.Drain()
	msg = probe()
	if msg.Type != proto.MsgError || !proto.IsBusyText(msg.Error) {
		t.Fatalf("draining probe reply = %+v, want busy MsgError", msg)
	}

	drainConn(c1)
	_ = proto.WriteBye(c1)
	if err := <-done1; err != nil {
		t.Fatalf("session: %v", err)
	}
}

func waitGauge(t *testing.T, reg *obs.Registry, name string, want float64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if reg.Snapshot().Gauges[name] == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("gauge %s = %v, want %v", name, reg.Snapshot().Gauges[name], want)
}

func TestLoadGauges(t *testing.T) {
	m := testManifest()
	s := New(m)
	s.Obs = obs.NewRegistry()

	c1, done1 := openSession(t, s)
	defer c1.Close()
	waitGauge(t, s.Obs, "srv_active_conns", 1)

	// A served request's bytes pass through srv_queue_bytes and drain back
	// to zero once the tile is on the wire.
	if err := proto.WriteRequest(c1, proto.Request{Generation: 1, Items: []player.RequestItem{
		{Stream: player.Primary, Chunk: 0, Tile: 0, Quality: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	if msg, err := readNonPing(c1); err != nil || msg.Type != proto.MsgTileData {
		t.Fatalf("tile: %v / %+v", err, msg)
	}
	waitGauge(t, s.Obs, "srv_queue_bytes", 0)

	drainConn(c1)
	_ = proto.WriteBye(c1)
	if err := <-done1; err != nil {
		t.Fatalf("session: %v", err)
	}
	waitGauge(t, s.Obs, "srv_active_conns", 0)

	if g := s.Obs.Snapshot().Gauges["srv_draining"]; g != 0 {
		t.Fatalf("srv_draining = %v before Drain", g)
	}
	s.Drain()
	waitGauge(t, s.Obs, "srv_draining", 1)
}

// TestStoreBytesCountsSlabOnce: the two videos of one server share the
// process's zero block, and srv_store_bytes counts it once — each store's
// heads and trailers plus one block, not the sum of their own footprints.
func TestStoreBytesCountsSlabOnce(t *testing.T) {
	a := testManifest()
	b := video.Generate(video.GenParams{ID: "srv2", Rows: 3, Cols: 5, NumChunks: 4, Seed: 7})
	s := New(a, b)
	s.Obs = obs.NewRegistry()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = s.Serve(ctx, l) // publishes the gauge, then stops at once

	sa, sb := store.Shared(a), store.Shared(b)
	one := store.Footprint()
	want := store.Footprint(sa) + store.Footprint(sb) - one
	if got := s.Obs.Snapshot().Gauges["srv_store_bytes"]; got != float64(want) || one == 0 {
		t.Fatalf("srv_store_bytes = %v, want %d (heads and trailers of both stores plus one %d-byte block); the per-store sum is %d",
			got, want, one, store.Footprint(sa)+store.Footprint(sb))
	}
}

func TestQueueBytesReleasedOnTeardown(t *testing.T) {
	m := testManifest()
	s := New(m)
	s.Obs = obs.NewRegistry()
	s.WriteTimeout = 150 * time.Millisecond

	c, done := openSession(t, s)
	defer c.Close()

	// Install a multi-tile queue, then stop reading: the pipe write
	// blocks, the write deadline kills the session mid-queue, and
	// releaseQueued must hand the unsent bytes back to the gauge.
	var items []player.RequestItem
	for tl := 0; tl < 8; tl++ {
		items = append(items, player.RequestItem{Stream: player.Primary, Chunk: 0, Tile: geom.TileID(tl), Quality: 1})
	}
	if err := proto.WriteRequest(c, proto.Request{Generation: 1, Items: items}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err == nil {
		t.Fatal("session with stalled reader ended without error")
	}
	if qb := s.queuedBytes.Load(); qb != 0 {
		t.Fatalf("QueuedBytes = %d after teardown, want 0", qb)
	}
	waitGauge(t, s.Obs, "srv_queue_bytes", 0)
	waitGauge(t, s.Obs, "srv_active_conns", 0)
}

// TestDrainGoroutineHygiene is the graceful-drain coverage: concurrent
// in-flight sessions finish their streams across a Drain() while new
// connections get the retryable busy reject, and after the listener closes
// the process is back to its pre-serve goroutine count.
func TestDrainGoroutineHygiene(t *testing.T) {
	m := testManifest()
	base := runtime.NumGoroutine()

	s := New(m)
	s.ReadTimeout = 2 * time.Second
	s.WriteTimeout = 2 * time.Second
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ctx, l) }()

	const sessions = 3
	conns := make([]net.Conn, sessions)
	for i := range conns {
		c, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := proto.WriteHello(c, proto.Hello{VideoID: "srv"}); err != nil {
			t.Fatal(err)
		}
		if msg, err := proto.ReadMessage(c); err != nil || msg.Type != proto.MsgManifest {
			t.Fatalf("session %d handshake: %v / %+v", i, err, msg)
		}
		conns[i] = c
	}

	s.Drain()

	// New connections are turned away with the retryable busy error.
	rej, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if msg, err := proto.ReadMessage(rej); err != nil || msg.Type != proto.MsgError || !proto.IsBusyText(msg.Error) {
		t.Fatalf("draining server replied %v / %+v, want busy MsgError", err, msg)
	}
	rej.Close()

	// Every pre-drain session still streams to completion.
	for i, c := range conns {
		if err := proto.WriteRequest(c, proto.Request{Generation: 1, Items: []player.RequestItem{
			{Stream: player.Primary, Chunk: 0, Tile: geom.TileID(i), Quality: 1},
		}}); err != nil {
			t.Fatalf("session %d request: %v", i, err)
		}
		if msg, err := readNonPing(c); err != nil || msg.Type != proto.MsgTileData {
			t.Fatalf("session %d tile after drain: %v / %+v", i, err, msg)
		}
		drainConn(c)
		if err := proto.WriteBye(c); err != nil {
			t.Fatalf("session %d bye: %v", i, err)
		}
	}

	// Close the listener; Serve waits for the handlers before returning.
	cancel()
	if err := <-serveDone; err != context.Canceled {
		t.Fatalf("Serve = %v, want context.Canceled", err)
	}
	for _, c := range conns {
		c.Close()
	}
	if n := s.ActiveConns(); n != 0 {
		t.Fatalf("ActiveConns = %d after shutdown", n)
	}

	// Zero leaked goroutines: allow a little slack for runtime/test
	// machinery, then dump stacks on failure so leaks are debuggable.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("goroutines = %d, want <= %d (pre-serve baseline + slack)", runtime.NumGoroutine(), base+2)
	_ = pprof.Lookup("goroutine").WriteTo(testWriter{t}, 1)
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(string(p))
	return len(p), nil
}
