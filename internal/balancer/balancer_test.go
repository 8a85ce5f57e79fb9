package balancer

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"dragonfly/internal/geom"
	"dragonfly/internal/netem"
	"dragonfly/internal/player"
	"dragonfly/internal/proto"
	"dragonfly/internal/server"
	"dragonfly/internal/video"
)

func testManifest() *video.Manifest {
	return video.Generate(video.GenParams{ID: "srv", Rows: 4, Cols: 4, NumChunks: 3, Seed: 9})
}

// fleet is an in-memory backend set: addr → live server, nil entry = dead
// host (dials are refused). Dials hand the server a fresh pipe.
type fleet struct {
	mu      sync.Mutex
	servers map[string]*server.Server
}

func newFleet(addrs ...string) *fleet {
	f := &fleet{servers: make(map[string]*server.Server)}
	for _, a := range addrs {
		srv := server.New(testManifest())
		srv.WriteTimeout = 250 * time.Millisecond
		f.servers[a] = srv
	}
	return f
}

func (f *fleet) kill(addr string) {
	f.mu.Lock()
	f.servers[addr] = nil
	f.mu.Unlock()
}

func (f *fleet) get(addr string) *server.Server {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.servers[addr]
}

func (f *fleet) dial(addr string, _ time.Duration) (net.Conn, error) {
	s := f.get(addr)
	if s == nil {
		return nil, errors.New("connection refused")
	}
	l := netem.NewPipeListener(netem.Link{})
	return dialServe(s, l, l.Dial)
}

// dialServe opens one session on srv through l: Serve accepts the dialled
// connection, stops accepting once l is closed, and returns when that
// session ends.
func dialServe(srv *server.Server, l net.Listener, dial func() (net.Conn, error)) (net.Conn, error) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		defer cancel()
		_ = srv.Serve(ctx, l)
	}()
	c, err := dial()
	l.Close()
	return c, err
}

func backendConfigs(addrs ...string) []BackendConfig {
	out := make([]BackendConfig, len(addrs))
	for i, a := range addrs {
		out[i] = BackendConfig{Addr: a}
	}
	return out
}

func TestDeadBackendUnhealthyWithinProbeBudget(t *testing.T) {
	f := newFleet("a", "b")
	f.kill("b")
	cfg := Config{
		Backends:      backendConfigs("a", "b"),
		ProbeInterval: 20 * time.Millisecond,
		ProbeTimeout:  100 * time.Millisecond,
		FailThreshold: 2,
		Dial:          f.dial,
	}
	bl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	start := time.Now()
	bl.startProbes(ctx)

	budget := time.Duration(cfg.FailThreshold)*(cfg.ProbeInterval+cfg.ProbeTimeout) + 150*time.Millisecond
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		st := bl.Status()
		if !st[1].Healthy {
			t.Logf("dead backend detected in %s (budget %s)", time.Since(start), budget)
			if !st[0].Healthy {
				t.Error("live backend also marked unhealthy")
			}
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("dead backend still healthy after %s probe budget", budget)
}

func TestBusyProbeMeansAliveButDraining(t *testing.T) {
	f := newFleet("a")
	f.get("a").Drain()
	bl, err := New(Config{
		Backends:     backendConfigs("a"),
		ProbeTimeout: 200 * time.Millisecond,
		Dial:         f.dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	bl.probeOnce(bl.backends[0])
	st := bl.Status()[0]
	if !st.Healthy || !st.Draining {
		t.Fatalf("draining backend status = %+v, want healthy && draining", st)
	}
	if b := bl.pick(nil); b != nil {
		t.Fatalf("pick routed to draining backend %s", b.cfg.Addr)
	}
}

func TestPickPrefersLowLoad(t *testing.T) {
	bl, err := New(Config{Backends: backendConfigs("a", "b", "c"), Dial: nil})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	set := func(i int, active int64, queueBytes float64) {
		b := bl.backends[i]
		b.mu.Lock()
		b.active, b.queueBytes, b.loadAt = active, queueBytes, now
		b.mu.Unlock()
	}
	set(0, 5, 0)
	set(1, 1, 100*queueBytesPerConn) // light on conns, heavy backlog
	set(2, 3, 0)
	if b := bl.pick(nil); b != bl.backends[2] {
		t.Fatalf("pick = %s, want c (lowest score)", b.cfg.Addr)
	}
	set(2, 6, 0)
	if b := bl.pick(nil); b != bl.backends[0] {
		t.Fatalf("pick = %s, want a", b.cfg.Addr)
	}
}

func TestPickStaleLoadFallsBackToRoundRobin(t *testing.T) {
	bl, err := New(Config{Backends: backendConfigs("a", "b")})
	if err != nil {
		t.Fatal(err)
	}
	// No probe has run: load data is absent, so picks must rotate rather
	// than dog-pile whatever sorts first.
	seen := map[string]int{}
	for i := 0; i < 4; i++ {
		b := bl.pick(nil)
		if b == nil {
			t.Fatal("pick returned nil with two routable backends")
		}
		seen[b.cfg.Addr]++
	}
	if seen["a"] != 2 || seen["b"] != 2 {
		t.Fatalf("round-robin distribution = %v, want a:2 b:2", seen)
	}
}

// TestProbeLoadSteersPick is the load signal end to end: two real servers
// each hold one session, and a's has an installed request it cannot send
// (its client stopped reading). One probe per member carries each server's
// queued bytes in its pong, so pick chooses b although both report one
// session.
func TestProbeLoadSteersPick(t *testing.T) {
	f := newFleet("a", "b")
	open := func(addr string) net.Conn {
		f.get(addr).WriteTimeout = 0 // a's blocked send must hold its queue
		c, err := f.dial(addr, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		go func() { _ = proto.WriteHello(c, proto.Hello{VideoID: "srv"}) }()
		if msg, err := proto.ReadMessage(c); err != nil || msg.Type != proto.MsgManifest {
			t.Fatalf("%s: handshake %v / %+v", addr, err, msg)
		}
		return c
	}
	busy := open("a")
	open("b")
	m := testManifest()
	var items []player.RequestItem
	for c := 0; c < m.NumChunks; c++ {
		for tl := 0; tl < m.NumTiles(); tl++ {
			items = append(items, player.RequestItem{Stream: player.Primary, Chunk: c, Tile: geom.TileID(tl), Quality: video.NumQualities - 1})
		}
	}
	if err := proto.WriteRequest(busy, proto.Request{Generation: 1, Items: items}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(2 * time.Second); f.get("a").Obs.Snapshot().Gauges["srv_queue_bytes"] == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("server a never queued the request")
		}
	}

	bl, err := New(Config{Backends: backendConfigs("a", "b"), ProbeTimeout: time.Second, Dial: f.dial})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bl.backends {
		bl.probeOnce(b)
	}
	st := bl.Status()
	if st[0].ActiveConns != 1 || st[1].ActiveConns != 1 || st[0].QueueBytes <= 0 || st[1].QueueBytes != 0 {
		t.Fatalf("probed status %+v, want one session each and queued bytes on a only", st)
	}
	if b := bl.pick(nil); b != bl.backends[1] {
		t.Fatalf("pick = %s, want the idle member b", b.cfg.Addr)
	}
}

func TestRouteFailsOverToHealthyBackend(t *testing.T) {
	f := newFleet("a", "b")
	f.kill("a")
	bl, err := New(Config{
		Backends:      backendConfigs("a", "b"),
		ProbeInterval: time.Hour, // passive detection only
		FailThreshold: 1,
		DialTimeout:   200 * time.Millisecond,
		Dial:          f.dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	lis := netem.NewPipeListener(netem.Link{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveDone := make(chan error, 1)
	go func() { serveDone <- bl.Serve(ctx, lis) }()

	// A session through the front tier lands on the live member even when
	// the picker tries the dead one first.
	for i := 0; i < 3; i++ {
		c, err := lis.Dial()
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = proto.WriteHello(c, proto.Hello{VideoID: "srv"}) }()
		msg, err := proto.ReadMessage(c)
		if err != nil || msg.Type != proto.MsgManifest {
			t.Fatalf("session %d through balancer: %v / %+v", i, err, msg)
		}
		c.Close()
	}
	if st := bl.Status(); st[0].Healthy {
		t.Error("dead backend not passively marked unhealthy by failed route dial")
	}

	// With every member gone the client gets the retryable busy reject.
	f.kill("b")
	c, err := lis.Dial()
	if err != nil {
		t.Fatal(err)
	}
	msg, err := proto.ReadMessage(c)
	if err != nil || msg.Type != proto.MsgError || !proto.IsBusyText(msg.Error) {
		t.Fatalf("empty fleet reply = %v / %+v, want busy MsgError", err, msg)
	}
	c.Close()

	cancel()
	if err := <-serveDone; err != context.Canceled {
		t.Fatalf("Serve = %v, want context.Canceled", err)
	}
}

func TestNewRequiresBackends(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New with no backends did not error")
	}
}
