package experiments

import (
	"context"
	"fmt"
	"io"
	"net"
	"time"

	"dragonfly/internal/chaos"
	"dragonfly/internal/client"
	"dragonfly/internal/core"
	"dragonfly/internal/fleettest"
	"dragonfly/internal/netem"
	"dragonfly/internal/player"
	"dragonfly/internal/proto"
	"dragonfly/internal/server"
	"dragonfly/internal/trace"
	"dragonfly/internal/video"
)

// The chaos scenario: one short session over a link that flips a bit in
// two writes and silently truncates a third, spread over the first half of
// the session while most tiles are still in flight, with the server
// process killed and restarted cold a third of the way in.
const chaosRestartAt = wireVideoDur / 3

// extChaosOutcome summarizes the chaos run: the session metrics, the send
// accounting summed over every server instance that ran, and the admission
// probe results.
type extChaosOutcome struct {
	Metrics *player.Metrics
	// Totals sums counters across all server instances; PrimarySent beyond
	// one per (chunk,tile) slot would mean a restarted server re-sent tiles
	// the client already held.
	Totals        server.Counters
	Instances     int
	ExcessPrimary int64
	// RejectedConns and BusyRetries come from the admission probe: a second
	// session against a MaxConns=1 server while the first still runs.
	RejectedConns int64
	BusyRetries   int64
}

// extChaos runs the integrity/crash-survival extension: a live session over
// a link that flips bits and truncates writes mid-stream while the serving
// process is killed and restarted cold, followed by an admission-control
// probe against a saturated server. Every corruption must surface as a
// clean link error (never a rendered corrupt tile), the restarted server
// must rebuild its dedup state purely from the client's resume bitmap, and
// the saturated server must fast-reject with a retryable busy error.
func extChaos(w io.Writer, seed int64) (extChaosOutcome, error) {
	m := wireManifest("chaos")
	head := wireHead("chaos-user", trace.MotionLow, seed)

	if err := chaos.Arm(linkFaults(seed, chaos.FaultCorrupt, chaos.FaultCorrupt, chaos.FaultPartial)...); err != nil {
		return extChaosOutcome{}, err
	}
	defer chaos.Disarm()

	// The restarted instance's only path back to the session state is the
	// client's resume bitmap.
	link := constLink(8)
	b := fleettest.NewBackend(context.Background(), "chaos", m, func() (net.Conn, net.Conn) { return netem.Pipe(link) },
		func(s *server.Server) { s.Heartbeat = 100 * time.Millisecond })
	defer b.Kill()
	restart := time.AfterFunc(chaosRestartAt, b.Restart)
	defer restart.Stop()

	met, err := client.PlayResilient(b.Dial, "chaos", head, core.NewDefault(), client.PlayOptions{Reconnect: wireReconnect(8, seed)})
	if err != nil {
		return extChaosOutcome{}, err
	}
	b.Kill() // quiesce before reading the totals

	out := extChaosOutcome{Metrics: met}
	out.Totals, out.Instances = b.Totals()
	out.ExcessPrimary = excessPrimary(out.Totals, 1, m)

	// Admission probe: saturate a MaxConns=1 server with a raw session over
	// TCP, then run a short client session that must be fast-rejected,
	// back off, and complete once the slot frees.
	out.RejectedConns, out.BusyRetries, err = chaosAdmissionProbe(m, head, seed)
	if err != nil {
		return extChaosOutcome{}, err
	}

	fprintf(w, "== Extension: chaos (corruption + server restart + admission) ==\n")
	fprintf(w, "Live session: 2 bit flips, 1 truncation, 1 server restart(s) mid-stream.\n\n")
	fprintf(w, "%-22s %10s\n", "metric", "value")
	fprintf(w, "%-22s %10d\n", "frames rendered", met.TotalFrames)
	fprintf(w, "%-22s %10.2f\n", "median PSNR (dB)", met.MedianScore())
	fprintf(w, "%-22s %10s\n", "rebuffer", met.RebufferDuration.Round(time.Millisecond).String())
	fprintf(w, "%-22s %10d\n", "disconnects survived", met.Disconnects)
	fprintf(w, "%-22s %10d\n", "corrupt frames (cli)", met.CorruptFrames)
	fprintf(w, "%-22s %10d\n", "corrupt tiles dropped", met.CorruptTiles)
	fprintf(w, "%-22s %10d\n", "server instances", out.Instances)
	fprintf(w, "%-22s %10d\n", "resumes", out.Totals.Resumes)
	fprintf(w, "%-22s %10d\n", "dedup entries restored", out.Totals.ResumedItems)
	fprintf(w, "%-22s %10d\n", "excess primary sends", out.ExcessPrimary)
	fprintf(w, "%-22s %10d\n", "rejected conns (probe)", out.RejectedConns)
	fprintf(w, "%-22s %10d\n", "busy retries (probe)", out.BusyRetries)
	return out, nil
}

// chaosAdmissionProbe exercises MaxConns end to end over real TCP (the
// fast-reject is written before the hello is read, which needs a buffered
// transport): with the single slot held, the probing session is rejected
// with a retryable busy error and completes after the holder leaves. It
// returns the conns the server rejected and the busy retries the prober
// absorbed.
func chaosAdmissionProbe(m *video.Manifest, head *trace.HeadTrace, seed int64) (rejected, busyRetries int64, err error) {
	srv := server.New(m)
	srv.Heartbeat = 100 * time.Millisecond
	srv.MaxConns = 1
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ctx, l)
	}()
	// Runs after the holder's conn is closed below: Serve closes l, waits
	// for its session handlers, and returns.
	defer func() {
		cancel()
		<-served
	}()
	addr := l.Addr().String()

	hold, err := net.Dial("tcp", addr)
	if err != nil {
		return 0, 0, err
	}
	defer hold.Close()
	if err := proto.WriteHello(hold, proto.Hello{VideoID: m.VideoID}); err != nil {
		return 0, 0, err
	}
	// The manifest is sent after admission: once it is here the holder has
	// the slot, whichever session goroutine the scheduler runs first. A
	// prober dialed any earlier can win the slot and get the holder
	// rejected instead.
	if msg, err := proto.ReadMessage(hold); err != nil {
		return 0, 0, fmt.Errorf("holder handshake: %w", err)
	} else if msg.Type != proto.MsgManifest {
		return 0, 0, fmt.Errorf("holder handshake: message type %d, want manifest", msg.Type)
	}
	go func() { _, _ = io.Copy(io.Discard, hold) }()
	release := time.AfterFunc(300*time.Millisecond, func() {
		_ = proto.WriteBye(hold)
		hold.Close()
	})
	defer release.Stop()

	rp := wireReconnect(10, seed)
	rp.BaseDelay = 50 * time.Millisecond
	met, err := client.PlayResilient(func() (net.Conn, error) { return net.Dial("tcp", addr) },
		m.VideoID, head, core.NewDefault(), client.PlayOptions{Reconnect: rp})
	if err != nil {
		return 0, 0, err
	}
	return srv.Counters().RejectedConns, met.BusyRejects, nil
}
