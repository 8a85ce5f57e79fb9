package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dragonfly/internal/chaos"
	"dragonfly/internal/leaktest"
	"dragonfly/internal/netem"
	"dragonfly/internal/player"
	"dragonfly/internal/proto"
)

// Chaos tests arm the process-global failpoint registry; none of them may
// run in t.Parallel. Each disarms on cleanup.

func armServer(t *testing.T, rules ...chaos.Rule) {
	t.Helper()
	if err := chaos.Arm(rules...); err != nil {
		t.Fatalf("chaos.Arm: %v", err)
	}
	t.Cleanup(chaos.Disarm)
}

// startSession runs HandleConn on a fresh pipe and completes the
// hello/manifest handshake, returning the client conn and the HandleConn
// error channel.
func startSession(t *testing.T, s *Server) (net.Conn, chan error) {
	t.Helper()
	client, srvConn := net.Pipe()
	errCh := make(chan error, 1)
	go func() {
		defer srvConn.Close()
		errCh <- s.handleConn(context.Background(), srvConn)
	}()
	t.Cleanup(func() { client.Close() })
	go func() { _ = proto.WriteHello(client, proto.Hello{VideoID: "srv"}) }()
	msg, err := proto.ReadMessage(client)
	if err != nil || msg.Type != proto.MsgManifest {
		t.Fatalf("handshake: %v / %+v", err, msg)
	}
	return client, errCh
}

// TestServeAcceptFaultDropsConnection: an armed server.accept fault closes
// the connection between accept and handshake; the next connection is
// served normally, and teardown leaks no goroutines.
func TestServeAcceptFaultDropsConnection(t *testing.T) {
	defer leaktest.Check(t)()
	armServer(t, chaos.Rule{Site: "server.accept", Kind: chaos.FaultError, Count: 1})

	s := New(testManifest())
	lis := netem.NewPipeListener(netem.Link{})
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ctx, lis) }()

	// First conn: dropped before any handshake byte.
	c1, err := lis.Dial()
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = proto.WriteHello(c1, proto.Hello{VideoID: "srv"}) }()
	if _, err := proto.ReadMessage(c1); err == nil {
		t.Fatal("read on a chaos-dropped connection succeeded")
	}
	c1.Close()

	// Second conn: the fault budget is spent, normal service resumes.
	c2, err := lis.Dial()
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = proto.WriteHello(c2, proto.Hello{VideoID: "srv"}) }()
	msg, err := proto.ReadMessage(c2)
	if err != nil || msg.Type != proto.MsgManifest {
		t.Fatalf("post-fault handshake: %v / %+v", err, msg)
	}
	_ = proto.WriteBye(c2)
	c2.Close()

	cancel()
	if err := <-serveDone; err != context.Canceled {
		t.Fatalf("Serve = %v, want context.Canceled", err)
	}
	if chaos.Injections("server.accept") != 1 {
		t.Errorf("server.accept injections = %d, want 1", chaos.Injections("server.accept"))
	}
}

// TestSendWriteFaultTearsDownSession: error and partial kinds on
// server.send.write end the session with the injected error — the client's
// resume path is the recovery, not silent frame loss.
func TestSendWriteFaultTearsDownSession(t *testing.T) {
	for _, kind := range []chaos.Kind{chaos.FaultError, chaos.FaultPartial} {
		t.Run(kind.String(), func(t *testing.T) {
			armServer(t, chaos.Rule{Site: "server.send.write", Kind: kind, Count: 1})
			s := New(testManifest())
			client, errCh := startSession(t, s)
			if err := proto.WriteRequest(client, proto.Request{Generation: 1, Items: []player.RequestItem{
				{Stream: player.Primary, Chunk: 0, Tile: 1, Quality: 1},
			}}); err != nil {
				t.Fatal(err)
			}
			// Drain until the torn connection surfaces client-side.
			go func() {
				for {
					if _, err := proto.ReadMessage(client); err != nil {
						return
					}
				}
			}()
			select {
			case err := <-errCh:
				if !errors.Is(err, chaos.ErrInjected) {
					t.Fatalf("HandleConn = %v, want ErrInjected", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("session did not end after injected write fault")
			}
			if sent := s.Counters().PrimarySent; sent != 0 {
				t.Errorf("PrimarySent = %d after torn batch, want 0 (frames not fully delivered must not be credited)", sent)
			}
		})
	}
}

// TestSendWriteCorruptCaughtByFrameCRC: a flipped byte on the wire (not in
// the store) must fail the client's frame CRC — the link-integrity half of
// the corruption duality (store.frame covers the payload half).
func TestSendWriteCorruptCaughtByFrameCRC(t *testing.T) {
	armServer(t, chaos.Rule{Site: "server.send.write", Kind: chaos.FaultCorrupt, Count: 1})
	s := New(testManifest())
	client, _ := startSession(t, s)
	if err := proto.WriteRequest(client, proto.Request{Generation: 1, Items: []player.RequestItem{
		{Stream: player.Primary, Chunk: 0, Tile: 1, Quality: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	_, err := proto.ReadMessage(client)
	if err == nil {
		t.Fatal("corrupted frame passed the client CRC")
	}
	if !strings.Contains(strings.ToLower(err.Error()), "crc") && !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("read error = %v, want a CRC/checksum failure", err)
	}
}

// TestWriteStallBudgetKillsSlowloris is the server slowloris defense: a
// client that accepts bytes too slowly for too long is killed with the
// typed errWriteStall and counted, releasing its queue bytes, instead of
// pinning a sender goroutine at the peer's pace forever.
func TestWriteStallBudgetKillsSlowloris(t *testing.T) {
	s := New(testManifest())
	s.WriteStallBudget = 5 * time.Millisecond
	client, errCh := startSession(t, s)

	// Two ~32 KiB tiles form one batch; at the reader's pace below the
	// batch write blocks ~15 ms — past the 5 ms excess budget, but the
	// whole drain stays well under a second.
	items := []player.RequestItem{
		{Stream: player.Primary, Chunk: 0, Tile: 1, Quality: 2},
		{Stream: player.Primary, Chunk: 0, Tile: 2, Quality: 2},
	}
	if err := proto.WriteRequest(client, proto.Request{Generation: 1, Items: items}); err != nil {
		t.Fatal(err)
	}
	// Slowloris: drain 4 KiB per millisecond — slow enough to exhaust the
	// excess budget, fast enough to keep the test short.
	go func() {
		buf := make([]byte, 4096)
		for {
			if _, err := client.Read(buf); err != nil {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	select {
	case err := <-errCh:
		if !errors.Is(err, errWriteStall) {
			t.Fatalf("HandleConn = %v, want errWriteStall", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("slowloris session never killed")
	}
	if got := s.Counters().WriteStallKills; got != 1 {
		t.Errorf("WriteStallKills = %d, want 1", got)
	}
}

// TestTraceWriteFaultNeverFailsSession: an injected session-trace flush
// failure (disk full, unlinked TraceDir) is logged and dropped; the
// session's own outcome is unchanged and no torn trace file is left for
// the ingest watcher to tail.
func TestTraceWriteFaultNeverFailsSession(t *testing.T) {
	armServer(t, chaos.Rule{Site: "server.trace.write", Kind: chaos.FaultError, Count: 1})
	dir := t.TempDir()
	s := New(testManifest())
	s.TraceDir = dir
	var logged atomic.Int64
	s.Logf = func(format string, args ...any) {
		if strings.Contains(format, "session trace") {
			logged.Add(1)
		}
		_ = fmt.Sprintf(format, args...)
	}
	client, errCh := startSession(t, s)
	_ = proto.WriteBye(client)
	go func() { _, _ = io.Copy(io.Discard, client) }()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("trace fault failed the session: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("session did not end")
	}
	if logged.Load() != 1 {
		t.Errorf("trace flush failure log lines = %d, want 1", logged.Load())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("faulted trace flush left files behind: %v", entries)
	}
}
