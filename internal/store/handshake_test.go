package store_test

import (
	"context"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"

	"dragonfly/internal/netem"
	"dragonfly/internal/proto"
	"dragonfly/internal/server"
	"dragonfly/internal/store"
	"dragonfly/internal/video"
)

// handshakes starts n sessions of the video on the server at once, reads
// each one's manifest frame raw and discards it, and ends them all once
// every frame has arrived, so each session holds the frame until all have
// read it.
func handshakes(t *testing.T, lis *netem.PipeListener, videoID string, n int) {
	t.Helper()
	conns := make([]net.Conn, n)
	var wg sync.WaitGroup
	for i := range conns {
		c, err := lis.Dial()
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := proto.WriteHello(c, proto.Hello{VideoID: videoID}); err != nil {
				t.Error(err)
				return
			}
			var hdr [4]byte
			if _, err := io.ReadFull(c, hdr[:]); err != nil {
				t.Error(err)
				return
			}
			if _, err := io.CopyN(io.Discard, c, int64(binary.BigEndian.Uint32(hdr[:]))+4); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for _, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.Close()
			if err := proto.WriteBye(c); err != nil {
				t.Error(err)
				return
			}
			for { // until the server's own goodbye
				msg, err := proto.ReadMessage(c)
				if err != nil {
					t.Error(err)
					return
				}
				if msg.Type == proto.MsgBye {
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestConcurrentHandshakesEncodeOnce: 32 sessions of one video starting at
// once are served one encode of its manifest frame, and once every session
// has ended, two collections leave the store holding no frame — an idle
// server pins none — until the next session start encodes it again.
func TestConcurrentHandshakesEncodeOnce(t *testing.T) {
	encodes := store.CountManifestEncodes(t)
	m := video.Generate(video.GenParams{ID: "hs", Rows: 6, Cols: 6, NumChunks: 8, Seed: 3})
	srv := server.New(m)
	srv.Heartbeat = -1
	lis := netem.NewPipeListener(netem.Link{})
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, lis) }()
	defer func() {
		cancel()
		<-served
	}()

	handshakes(t, lis, m.VideoID, 32)
	if n := encodes.Load(); n != 1 {
		t.Fatalf("32 concurrent handshakes encoded the manifest %d times, want 1", n)
	}
	for range 2 {
		runtime.GC()
	}
	if store.Shared(m).HoldsManifestFrame() {
		t.Fatal("the store holds the manifest frame after every session ended")
	}
	handshakes(t, lis, m.VideoID, 1)
	if n := encodes.Load(); n != 2 {
		t.Fatalf("%d encodes after a session start on an idle server, want 2", n)
	}
}
