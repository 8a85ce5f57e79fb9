package client

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"dragonfly/internal/core"
	"dragonfly/internal/leaktest"
	"dragonfly/internal/player"
	"dragonfly/internal/proto"
	"dragonfly/internal/video"
)

// scriptedPeer plays the server's side of the handshake for m on one end of
// a pipe, runs script, and then swallows every frame — Bye included —
// without ever hanging up. gone is closed once its read fails, which on a
// pipe means the client's end has been closed.
func scriptedPeer(m *video.Manifest, script func(srv net.Conn)) (client net.Conn, gone <-chan struct{}) {
	client, srv := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if msg, err := proto.ReadMessage(srv); err != nil || msg.Type != proto.MsgHello {
			return
		}
		if err := proto.WriteManifest(srv, m); err != nil {
			return
		}
		if script != nil {
			script(srv)
		}
		for {
			if _, err := proto.ReadMessage(srv); err != nil {
				return
			}
		}
	}()
	return client, done
}

func oneSecondVideo() *video.Manifest {
	return video.Generate(video.GenParams{ID: "live", Rows: 6, Cols: 6, NumChunks: 1, Seed: 77})
}

// A frame that is valid on the wire but names a tile the manifest does not
// have (a confused or hostile server) is handled like a payload that fails
// its checksum: counted, its bytes accounted, nothing held — and nothing
// indexed with it, which would panic the receiver goroutine.
func TestOutOfRangeTileCountedAsCorrupt(t *testing.T) {
	m := oneSecondVideo()
	conn, _ := scriptedPeer(m, func(srv net.Conn) {
		_ = proto.WriteTileData(srv, proto.TileData{Item: player.RequestItem{Chunk: 9999}, Payload: make([]byte, 64)})
	})
	defer conn.Close()
	met, err := Play(conn, "live", liveHead(time.Second), core.NewDefault(), PlayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if met.CorruptTiles != 1 || met.CorruptFrames != 0 || met.BytesReceived != 64 || met.BytesUseful != 0 {
		t.Errorf("CorruptTiles %d CorruptFrames %d BytesReceived %d BytesUseful %d, want 1 0 64 0",
			met.CorruptTiles, met.CorruptFrames, met.BytesReceived, met.BytesUseful)
	}
	if met.TotalFrames != m.NumFrames() {
		t.Errorf("rendered %d frames, want %d", met.TotalFrames, m.NumFrames())
	}
}

// A session that ends mid-outage takes its reconnector with it: a backoff
// of seconds still pending when the video has played out is cut short, not
// slept out. Four sessions run side by side so that their reconnectors,
// had they stayed, would stand out above the checker's slack.
func TestSessionEndStopsPendingBackoff(t *testing.T) {
	defer leaktest.CheckTimeout(t, 300*time.Millisecond)()
	const sessions = 4
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		go func() {
			dials := 0
			dial := func() (net.Conn, error) {
				if dials++; dials > 1 {
					return nil, errors.New("no second dial expected")
				}
				// The peer hangs up right after the manifest: an outage
				// from the first instant, and nothing held to play.
				conn, _ := scriptedPeer(oneSecondVideo(), func(srv net.Conn) { srv.Close() })
				return conn, nil
			}
			met, err := PlayResilient(dial, "live", liveHead(time.Second), core.NewDefault(), PlayOptions{
				Reconnect: ReconnectPolicy{MaxAttempts: 3, BaseDelay: 3 * time.Second, MaxDelay: 3 * time.Second},
			})
			if err == nil && met.Disconnects != 1 {
				err = fmt.Errorf("Disconnects = %d, want 1", met.Disconnects)
			}
			errs <- err
		}()
	}
	for i := 0; i < sessions; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// A session that ends while its reconnector waits out a backoff leaves its
// Playback alone: Finish hands the tile state on to the next session, so
// the reconnector checks that the session is still running before it reads
// what is held for a resume. Each session here holds tiles when its link
// drops, ends mid-backoff, and is followed at once by a session on the same
// manifest that starts in the storage the first gave back while the first
// one's reconnector wakes. Reading the finished Playback panics, and under
// -race a read of the storage the next session writes is reported.
func TestFinishDuringBackoffReadsNoTiles(t *testing.T) {
	defer leaktest.CheckTimeout(t, 300*time.Millisecond)()
	const sessions = 4
	m := oneSecondVideo()
	held := []player.RequestItem{{Stream: player.Masking, Full360: true}, {Tile: 7}}
	heldBytes := held[0].Size(m) + held[1].Size(m)
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		go func() {
			dial := func() (net.Conn, error) {
				// Chunk 0's full-360° masking and one primary tile (the
				// generator's payloads are zeros), then the peer hangs up.
				conn, _ := scriptedPeer(m, func(srv net.Conn) {
					for _, it := range held {
						_ = proto.WriteTileData(srv, proto.TileData{Item: it, Payload: make([]byte, it.Size(m))})
					}
					srv.Close()
				})
				return conn, nil
			}
			met, err := PlayResilient(dial, "live", liveHead(time.Second), core.NewDefault(), PlayOptions{
				Reconnect: ReconnectPolicy{MaxAttempts: 3, BaseDelay: 3 * time.Second, MaxDelay: 3 * time.Second},
			})
			if err == nil && (met.Disconnects != 1 || met.ResumedTiles != 0 || met.BytesReceived != heldBytes || met.CorruptTiles != 0) {
				err = fmt.Errorf("Disconnects %d ResumedTiles %d BytesReceived %d CorruptTiles %d, want 1 0 %d 0",
					met.Disconnects, met.ResumedTiles, met.BytesReceived, met.CorruptTiles, heldBytes)
			}
			if err == nil {
				conn, _ := scriptedPeer(m, nil)
				met, err = Play(conn, "live", liveHead(time.Second), core.NewDefault(), PlayOptions{})
				conn.Close()
				if err == nil && met.TotalFrames != m.NumFrames() {
					err = fmt.Errorf("the next session rendered %d frames, want %d", met.TotalFrames, m.NumFrames())
				}
			}
			errs <- err
		}()
	}
	for i := 0; i < sessions; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// PlayResilient owns the connections it dials: on every return path the
// last one is closed — and with it the receiver goroutine ends — even when
// the peer never hangs up.
func TestPlayResilientClosesWhatItDials(t *testing.T) {
	cases := []struct {
		name    string
		script  func(srv net.Conn)
		wantErr bool
	}{
		{name: "clean end, Bye swallowed"},
		{name: "fatal server error", wantErr: true,
			script: func(srv net.Conn) { _ = proto.WriteError(srv, "scripted failure") }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer leaktest.Check(t)()
			var gone <-chan struct{}
			dial := func() (conn net.Conn, err error) {
				conn, gone = scriptedPeer(oneSecondVideo(), tc.script)
				return conn, nil
			}
			_, err := PlayResilient(dial, "live", liveHead(time.Second), core.NewDefault(), PlayOptions{})
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, want an error: %v", err, tc.wantErr)
			}
			select {
			case <-gone:
			case <-time.After(2 * time.Second):
				t.Error("the dialed connection is still open after PlayResilient returned")
			}
		})
	}
}
