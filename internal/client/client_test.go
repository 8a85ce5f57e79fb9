package client

import (
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"dragonfly/internal/baseline"
	"dragonfly/internal/core"
	"dragonfly/internal/geom"
	"dragonfly/internal/netem"
	"dragonfly/internal/player"
	"dragonfly/internal/server"
	"dragonfly/internal/trace"
	"dragonfly/internal/video"
)

// Play streams videoID from the server behind conn over that one
// connection: a one-shot dialer hands conn to PlayResilient with no
// reconnect budget, so the first link loss ends the session, and the
// session closes conn when it ends. The tests drive a single link's
// behaviour through it.
func Play(conn net.Conn, videoID string, head *trace.HeadTrace, scheme player.Scheme, opts PlayOptions) (*player.Metrics, error) {
	var dialed bool
	dial := func() (net.Conn, error) {
		if dialed {
			return nil, errors.New("one-shot dialer: already dialed")
		}
		dialed = true
		return conn, nil
	}
	opts.Reconnect.MaxAttempts = 0
	return PlayResilient(dial, videoID, head, scheme, opts)
}

func liveManifest() *video.Manifest {
	// 3 seconds of 6x6 video keeps real-time tests quick.
	return video.Generate(video.GenParams{
		ID: "live", Rows: 6, Cols: 6, NumChunks: 3,
		TargetQP42Mbps: 0.8, TargetQP22Mbps: 6, Seed: 77,
	})
}

func liveHead(d time.Duration) *trace.HeadTrace {
	return trace.GenerateHead(trace.HeadGenParams{UserID: "live-user", Class: trace.MotionLow, Duration: d, Seed: 5})
}

// servePipe runs a server session over an in-memory shaped pipe.
func servePipe(t *testing.T, m *video.Manifest, link netem.Link) net.Conn {
	t.Helper()
	l := netem.NewPipeListener(link)
	clientConn, err := dialServe(server.New(m), l, l.Dial)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { clientConn.Close() })
	return clientConn
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

func TestPlayDragonflyOverPipe(t *testing.T) {
	m := liveManifest()
	link := netem.Link{Trace: &trace.BandwidthTrace{SamplePeriod: time.Second, Mbps: []float64{20}}}
	conn := servePipe(t, m, link)

	met, err := Play(conn, "live", liveHead(4*time.Second), core.NewDefault(), PlayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if met.TotalFrames != m.NumFrames() {
		t.Fatalf("rendered %d frames, want %d", met.TotalFrames, m.NumFrames())
	}
	if met.RebufferDuration != 0 {
		t.Error("Dragonfly rebuffered")
	}
	if met.IncompleteFrames != 0 {
		t.Errorf("incomplete frames: %d", met.IncompleteFrames)
	}
	if met.BytesReceived == 0 {
		t.Error("no bytes received")
	}
	if met.MedianScore() < 30 {
		t.Errorf("median score %.1f suspiciously low", met.MedianScore())
	}
	if met.Truncated {
		t.Error("session truncated")
	}
}

func TestPlayFlareOverPipeStallsOnSlowLink(t *testing.T) {
	m := liveManifest()
	// Starve the link below even the lowest-quality requirement at first.
	link := netem.Link{Trace: &trace.BandwidthTrace{
		SamplePeriod: time.Second, Mbps: []float64{2, 0.3, 0.3, 8, 8, 8},
	}}
	conn := servePipe(t, m, link)
	met, err := Play(conn, "live", liveHead(4*time.Second), baseline.NewFlare(baseline.FlareOptions{}), PlayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if met.TotalFrames == 0 {
		t.Fatal("no frames rendered")
	}
	if met.IncompleteFrames != 0 {
		t.Error("stall scheme rendered incomplete frames")
	}
	// The dead period must show up as rebuffering or startup delay.
	if met.RebufferDuration == 0 && met.StartupDelay < time.Second {
		t.Errorf("expected stalls or long startup; rebuf=%v startup=%v", met.RebufferDuration, met.StartupDelay)
	}
}

func TestPlayUnknownVideo(t *testing.T) {
	m := liveManifest()
	conn := servePipe(t, m, netem.Link{})
	_, err := Play(conn, "nope", liveHead(time.Second), core.NewDefault(), PlayOptions{})
	if err == nil {
		t.Fatal("unknown video accepted")
	}
}

// TestOpeningHandshakeHonorsDeadlines: a backend that accepts, swallows the
// hello and never answers (a stalled accept, a wedged balancer member) must
// cost the opening handshake one read deadline, not the session: Play fails
// with the retryable link error, and PlayResilient, redialing into the same
// silence, fails with errReconnectBudget once TotalBudget is gone. The
// opening handshake used to run with no deadline at all.
func TestOpeningHandshakeHonorsDeadlines(t *testing.T) {
	silent := func() (net.Conn, error) {
		c, s := net.Pipe()
		go func() { _, _ = io.Copy(io.Discard, s) }()
		t.Cleanup(func() { s.Close() })
		return c, nil
	}
	policy := ReconnectPolicy{MaxAttempts: 1000, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond,
		ReadTimeout: 100 * time.Millisecond, WriteTimeout: 100 * time.Millisecond, TotalBudget: 500 * time.Millisecond}
	within := func(name string, play func() error, want error) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- play() }()
		select {
		case err := <-done:
			if !errors.Is(err, want) {
				t.Errorf("%s: %v, want %v", name, err, want)
			}
		case <-time.After(3 * time.Second):
			t.Fatalf("%s: still blocked in the opening handshake after 3 s", name)
		}
	}
	within("Play", func() error {
		conn, _ := silent()
		defer conn.Close()
		_, err := Play(conn, "live", liveHead(time.Second), core.NewDefault(), PlayOptions{Reconnect: policy})
		return err
	}, errHandshakeLink)
	within("PlayResilient", func() error {
		_, err := PlayResilient(silent, "live", liveHead(time.Second), core.NewDefault(), PlayOptions{Reconnect: policy})
		return err
	}, errReconnectBudget)
}

func TestPlayValidatesArgs(t *testing.T) {
	c, s := net.Pipe()
	defer c.Close()
	defer s.Close()
	if _, err := Play(c, "x", nil, core.NewDefault(), PlayOptions{}); err == nil {
		t.Error("nil head accepted")
	}
	if _, err := Play(c, "x", liveHead(time.Second), nil, PlayOptions{}); err == nil {
		t.Error("nil scheme accepted")
	}
}

func TestEndToEndOverTCP(t *testing.T) {
	m := liveManifest()
	srv := server.New(m)
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	link := netem.Link{Trace: &trace.BandwidthTrace{SamplePeriod: time.Second, Mbps: []float64{15}}}
	l := netem.WrapListener(inner, link)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = srv.Serve(ctx, l) }()

	conn, err := dialTimeout(inner.Addr().String(), defaultDialTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	met, err := Play(conn, "live", liveHead(4*time.Second), core.NewDefault(), PlayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if met.TotalFrames != m.NumFrames() {
		t.Fatalf("rendered %d frames over TCP", met.TotalFrames)
	}
	if met.IncompleteFrames != 0 {
		t.Errorf("incomplete frames over TCP: %d", met.IncompleteFrames)
	}
}

func TestServerConcurrentSessions(t *testing.T) {
	m := liveManifest()
	srv := server.New(m)
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = srv.Serve(ctx, inner) }()

	type result struct {
		met *player.Metrics
		err error
	}
	results := make(chan result, 3)
	for i := 0; i < 3; i++ {
		go func(i int) {
			conn, err := dialTimeout(inner.Addr().String(), defaultDialTimeout)
			if err != nil {
				results <- result{err: err}
				return
			}
			defer conn.Close()
			met, err := Play(conn, "live", liveHead(4*time.Second), core.NewDefault(), PlayOptions{})
			results <- result{met: met, err: err}
		}(i)
	}
	for i := 0; i < 3; i++ {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.met.TotalFrames != m.NumFrames() {
			t.Errorf("session %d rendered %d frames", i, r.met.TotalFrames)
		}
	}
}

func TestServerRedundancySuppression(t *testing.T) {
	// Issue overlapping requests directly over the protocol and count the
	// server's transmissions.
	m := liveManifest()
	l := netem.NewPipeListener(netem.Link{})
	clientConn, err := dialServe(server.New(m), l, l.Dial)
	if err != nil {
		t.Fatal(err)
	}
	defer clientConn.Close()

	met, err := Play(clientConn, "live", liveHead(4*time.Second), core.NewDefault(), PlayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Every Decide re-states the masking plan; the server must have sent
	// each full-360 chunk exactly once.
	var maskBytes int64
	for c := 0; c < m.NumChunks; c++ {
		maskBytes += m.Full360Size(c, video.Lowest)
	}
	if met.BytesReceived < maskBytes {
		t.Errorf("received %d < masking floor %d", met.BytesReceived, maskBytes)
	}
	// Upper bound: masking + at most one primary variant per (chunk, tile),
	// each no larger than the top-quality encoding. More than that would
	// mean the server re-sent tiles.
	var maxPrimary int64
	for c := 0; c < m.NumChunks; c++ {
		for tl := 0; tl < m.NumTiles(); tl++ {
			maxPrimary += m.TileSize(c, geom.TileID(tl), video.Highest)
		}
	}
	if met.BytesReceived > maskBytes+maxPrimary {
		t.Errorf("received %d exceeds one-variant-per-tile bound %d", met.BytesReceived, maskBytes+maxPrimary)
	}
}

// TestClientMatchesEngine validates the two playback paths against each
// other: the same scheme, video, head trace and (effectively unconstrained)
// link must produce equivalent sessions through the discrete-event engine
// and the real-time network client.
func TestClientMatchesEngine(t *testing.T) {
	m := liveManifest()
	head := liveHead(4 * time.Second)
	fastTrace := &trace.BandwidthTrace{ID: "fast", SamplePeriod: time.Second, Mbps: []float64{200}}

	engineMet, err := player.Run(player.Config{
		Manifest:  m,
		Head:      head,
		Bandwidth: fastTrace,
		Scheme:    core.NewDefault(),
	})
	if err != nil {
		t.Fatal(err)
	}

	conn := servePipe(t, m, netem.Link{Trace: fastTrace})
	clientMet, err := Play(conn, "live", head, core.NewDefault(), PlayOptions{})
	if err != nil {
		t.Fatal(err)
	}

	if engineMet.TotalFrames != clientMet.TotalFrames {
		t.Errorf("frames: engine %d vs client %d", engineMet.TotalFrames, clientMet.TotalFrames)
	}
	if engineMet.IncompleteFrames != 0 || clientMet.IncompleteFrames != 0 {
		t.Errorf("incomplete frames: engine %d client %d", engineMet.IncompleteFrames, clientMet.IncompleteFrames)
	}
	if engineMet.RebufferDuration != 0 || clientMet.RebufferDuration != 0 {
		t.Error("neither path should stall on a fast link")
	}
	// Quality within a tolerance: the client pays real wall-clock jitter
	// during startup, so allow a few dB at the median.
	de, dc := engineMet.MedianScore(), clientMet.MedianScore()
	if dc < de-4 {
		t.Errorf("client median %.2f far below engine %.2f", dc, de)
	}
}
