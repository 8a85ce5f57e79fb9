package server

import (
	"context"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dragonfly/internal/geom"
	"dragonfly/internal/player"
	"dragonfly/internal/proto"
	"dragonfly/internal/video"
)

func testManifest() *video.Manifest {
	return video.Generate(video.GenParams{ID: "srv", Rows: 4, Cols: 4, NumChunks: 3, Seed: 9})
}

func TestVideos(t *testing.T) {
	s := New(testManifest())
	vids := s.Videos()
	if len(vids) != 1 || vids[0] != "srv" {
		t.Fatalf("videos = %v", vids)
	}
}

func TestSendStateSupersession(t *testing.T) {
	m := testManifest()
	st := newSession(New(m), m, "")
	st.install(proto.Request{Generation: 1, Items: []player.RequestItem{
		{Stream: player.Primary, Chunk: 0, Tile: 0, Quality: 1},
		{Stream: player.Primary, Chunk: 0, Tile: 1, Quality: 1},
	}}, 0, 0)
	// A newer request replaces the queue wholesale.
	st.install(proto.Request{Generation: 2, Items: []player.RequestItem{
		{Stream: player.Primary, Chunk: 0, Tile: 2, Quality: 3},
	}}, 0, 0)
	it, ok, done := st.next()
	if !ok || done || it.Tile != 2 {
		t.Fatalf("next = %+v ok=%v done=%v", it, ok, done)
	}
	if _, ok, _ := st.next(); ok {
		t.Fatal("superseded items survived")
	}
}

func TestSendStateIgnoresStaleGeneration(t *testing.T) {
	m := testManifest()
	st := newSession(New(m), m, "")
	st.install(proto.Request{Generation: 5, Items: []player.RequestItem{
		{Stream: player.Primary, Chunk: 0, Tile: 7, Quality: 1},
	}}, 0, 0)
	st.install(proto.Request{Generation: 3, Items: []player.RequestItem{
		{Stream: player.Primary, Chunk: 0, Tile: 9, Quality: 1},
	}}, 0, 0)
	it, ok, _ := st.next()
	if !ok || it.Tile != 7 {
		t.Fatalf("stale generation replaced queue: %+v", it)
	}
}

func TestSendStateRedundancyRules(t *testing.T) {
	m := testManifest()
	st := newSession(New(m), m, "")
	items := []player.RequestItem{
		{Stream: player.Masking, Chunk: 0, Tile: 1, Quality: 0},
		{Stream: player.Primary, Chunk: 0, Tile: 1, Quality: 2}, // upgrade over masking: allowed
		{Stream: player.Primary, Chunk: 0, Tile: 1, Quality: 4}, // re-send primary: dropped
		{Stream: player.Masking, Chunk: 0, Full360: true, Quality: 0},
		{Stream: player.Masking, Chunk: 0, Tile: 2, Quality: 0},       // covered by full-360: dropped
		{Stream: player.Masking, Chunk: 0, Full360: true, Quality: 0}, // duplicate full: dropped
	}
	st.install(proto.Request{Generation: 1, Items: items}, 0, 0)
	var sent []player.RequestItem
	for {
		it, ok, done := st.next()
		if done || !ok {
			break
		}
		sent = append(sent, it)
	}
	if len(sent) != 3 {
		t.Fatalf("sent %d items, want 3: %+v", len(sent), sent)
	}
	if sent[0].Stream != player.Masking || sent[1].Stream != player.Primary || !sent[2].Full360 {
		t.Fatalf("unexpected send order: %+v", sent)
	}
}

func TestSendStateSkipsMalformed(t *testing.T) {
	m := testManifest()
	st := newSession(New(m), m, "")
	st.install(proto.Request{Generation: 1, Items: []player.RequestItem{
		{Stream: player.Primary, Chunk: 999, Tile: 0, Quality: 1},
		{Stream: player.Primary, Chunk: 0, Tile: 999, Quality: 1},
		// Full360 excuses the tile of a masking chunk only: indexing the
		// primary dedup state with this one would panic the handler.
		{Stream: player.Primary, Chunk: 0, Full360: true, Tile: 999, Quality: 1},
		{Stream: player.Primary, Chunk: 0, Tile: 3, Quality: 1},
	}}, 0, 0)
	it, ok, _ := st.next()
	if !ok || it.Tile != 3 {
		t.Fatalf("malformed items not skipped: %+v", it)
	}
}

func TestSendStateCloseUnblocks(t *testing.T) {
	m := testManifest()
	st := newSession(New(m), m, "")
	done := make(chan struct{})
	go func() {
		for {
			_, ok, closed := st.next()
			if closed {
				close(done)
				return
			}
			if !ok {
				<-st.wake
			}
		}
	}()
	time.Sleep(10 * time.Millisecond)
	st.close()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("close did not unblock the sender")
	}
}

func TestHandleConnRejectsNonHello(t *testing.T) {
	s := New(testManifest())
	client, srvConn := net.Pipe()
	errCh := make(chan error, 1)
	go func() { errCh <- s.handleConn(context.Background(), srvConn) }()
	if err := proto.WriteRequest(client, proto.Request{Generation: 1}); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err == nil {
		t.Fatal("non-hello first message accepted")
	}
	client.Close()
	srvConn.Close()
}

func TestHandleConnUnknownVideo(t *testing.T) {
	s := New(testManifest())
	client, srvConn := net.Pipe()
	errCh := make(chan error, 1)
	go func() { errCh <- s.handleConn(context.Background(), srvConn) }()
	go func() { _ = proto.WriteHello(client, proto.Hello{VideoID: "ghost"}) }()
	msg, err := proto.ReadMessage(client)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != proto.MsgError {
		t.Fatalf("expected error message, got %d", msg.Type)
	}
	if err := <-errCh; err == nil {
		t.Fatal("unknown video reported no error")
	}
	client.Close()
	srvConn.Close()
}

// TestRejectHonorsWriteDeadline: a peer whose first message is refused and
// which then never reads must not hold the handler, and its admission slot,
// in the reject write. Every refusal goes through the one reject, under the
// write deadline; four of them used to write with none.
func TestRejectHonorsWriteDeadline(t *testing.T) {
	m := testManifest()
	held := emptyHeld(m)
	wrongGeometry := emptyHeld(video.Generate(video.GenParams{ID: "other", Rows: 2, Cols: 2, NumChunks: 1, Seed: 1}))
	firsts := map[string]func(c net.Conn) error{
		"hello for an unknown video": func(c net.Conn) error {
			return proto.WriteHello(c, proto.Hello{VideoID: "ghost"})
		},
		"resume for an unknown video": func(c net.Conn) error {
			return proto.WriteResume(c, proto.Resume{Version: proto.ProtoVersion, VideoID: "ghost", Held: held})
		},
		"resume with a bad version": func(c net.Conn) error {
			return proto.WriteResume(c, proto.Resume{Version: proto.ProtoVersion + 1, VideoID: "srv", Held: held})
		},
		"resume with the wrong geometry": func(c net.Conn) error {
			return proto.WriteResume(c, proto.Resume{Version: proto.ProtoVersion, VideoID: "srv", Held: wrongGeometry})
		},
	}
	for name, first := range firsts {
		s := New(m)
		s.WriteTimeout = 50 * time.Millisecond
		client, srvConn := net.Pipe()
		done := make(chan error, 1)
		go func() { done <- s.handleConn(context.Background(), srvConn) }()
		if err := first(client); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		select {
		case err := <-done:
			if err == nil || strings.Contains(err.Error(), "read hello") {
				t.Errorf("%s: handler returned %v, want a refusal", name, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s: handler still in the reject write 2 s after a 50 ms deadline (ActiveConns = %d)", name, s.ActiveConns())
		}
		if n := s.ActiveConns(); n != 0 {
			t.Errorf("%s: ActiveConns = %d after the reject", name, n)
		}
		client.Close()
		srvConn.Close()
	}
}

func TestHandleConnStreamsRequestedTiles(t *testing.T) {
	m := testManifest()
	s := New(m)
	client, srvConn := net.Pipe()
	go func() {
		defer srvConn.Close()
		_ = s.handleConn(context.Background(), srvConn)
	}()
	defer client.Close()

	go func() { _ = proto.WriteHello(client, proto.Hello{VideoID: "srv"}) }()
	readCh := make(chan *proto.Message, 16)
	errCh := make(chan error, 1)
	go func() {
		for {
			msg, err := proto.ReadMessage(client)
			if err != nil {
				errCh <- err
				return
			}
			readCh <- msg
		}
	}()

	msg := <-readCh
	if msg.Type != proto.MsgManifest || msg.Manifest.VideoID != "srv" {
		t.Fatalf("expected manifest, got %d", msg.Type)
	}

	want := player.RequestItem{Stream: player.Primary, Chunk: 1, Tile: 5, Quality: 2}
	if err := proto.WriteRequest(client, proto.Request{Generation: 1, Items: []player.RequestItem{want}}); err != nil {
		t.Fatal(err)
	}
	select {
	case msg = <-readCh:
	case err := <-errCh:
		t.Fatal(err)
	case <-time.After(2 * time.Second):
		t.Fatal("no tile data")
	}
	if msg.Type != proto.MsgTileData || msg.TileData.Item != want {
		t.Fatalf("tile data mismatch: %+v", msg)
	}
	if int64(len(msg.TileData.Payload)) != m.TileSize(1, 5, 2) {
		t.Fatalf("payload %d bytes, want %d", len(msg.TileData.Payload), m.TileSize(1, 5, 2))
	}
	_ = proto.WriteBye(client)
}

func TestSendStateEqualGenerationReplay(t *testing.T) {
	m := testManifest()
	st := newSession(New(m), m, "")
	st.install(proto.Request{Generation: 7, Items: []player.RequestItem{
		{Stream: player.Primary, Chunk: 0, Tile: 1, Quality: 1},
	}}, 0, 0)
	// A reconnecting client replays its last request with the same
	// generation; the replay must install (idempotent), not be dropped.
	st.install(proto.Request{Generation: 7, Items: []player.RequestItem{
		{Stream: player.Primary, Chunk: 0, Tile: 2, Quality: 1},
	}}, 0, 0)
	it, ok, _ := st.next()
	if !ok || it.Tile != 2 {
		t.Fatalf("equal-generation replay ignored: %+v ok=%v", it, ok)
	}
}

func TestSendStateGenerationWraparound(t *testing.T) {
	m := testManifest()
	st := newSession(New(m), m, "")
	st.install(proto.Request{Generation: ^uint32(0) - 1, Items: []player.RequestItem{
		{Stream: player.Primary, Chunk: 0, Tile: 1, Quality: 1},
	}}, 0, 0)
	// 3 is "newer" than 2^32-2 under serial-number arithmetic.
	st.install(proto.Request{Generation: 3, Items: []player.RequestItem{
		{Stream: player.Primary, Chunk: 0, Tile: 2, Quality: 1},
	}}, 0, 0)
	it, ok, _ := st.next()
	if !ok || it.Tile != 2 {
		t.Fatalf("wrapped generation treated as stale: %+v ok=%v", it, ok)
	}
	// And the pre-wrap generation is now stale.
	st.install(proto.Request{Generation: ^uint32(0) - 5, Items: []player.RequestItem{
		{Stream: player.Primary, Chunk: 0, Tile: 3, Quality: 1},
	}}, 0, 0)
	if _, ok, _ := st.next(); ok {
		t.Fatal("pre-wrap generation accepted after wraparound")
	}
}

func TestSendStateInstallAfterClose(t *testing.T) {
	m := testManifest()
	st := newSession(New(m), m, "")
	st.close()
	st.install(proto.Request{Generation: 1, Items: []player.RequestItem{
		{Stream: player.Primary, Chunk: 0, Tile: 1, Quality: 1},
	}}, 0, 0)
	it, ok, done := st.next()
	if ok || !done {
		t.Fatalf("install after close queued work: %+v ok=%v done=%v", it, ok, done)
	}
}

func TestSendStatePreload(t *testing.T) {
	m := testManifest()
	st := newSession(New(m), m, "")
	held := player.HeldSummary{
		NumChunks: m.NumChunks,
		NumTiles:  m.NumTiles(),
		Primary:   make([]byte, (m.NumChunks*m.NumTiles()+7)/8),
		MaskTile:  make([]byte, (m.NumChunks*m.NumTiles()+7)/8),
		MaskFull:  make([]byte, (m.NumChunks+7)/8),
	}
	held.Primary[0] |= 1 << 3 // chunk 0, tile 3
	held.MaskFull[0] |= 1 << 1

	if n := st.preload(held); n != 2 {
		t.Fatalf("preload restored %d entries, want 2", n)
	}
	st.install(proto.Request{Generation: 1, Items: []player.RequestItem{
		{Stream: player.Primary, Chunk: 0, Tile: 3, Quality: 2}, // held: suppressed
		{Stream: player.Masking, Chunk: 1, Full360: true},       // held: suppressed
		{Stream: player.Masking, Chunk: 1, Tile: 0, Quality: 0}, // covered by held full-360
		{Stream: player.Primary, Chunk: 0, Tile: 4, Quality: 2}, // not held: sent
	}}, 0, 0)
	it, ok, _ := st.next()
	if !ok || it.Tile != 4 || it.Stream != player.Primary {
		t.Fatalf("preload did not suppress held items: %+v ok=%v", it, ok)
	}
	if _, ok, _ := st.next(); ok {
		t.Fatal("suppressed items leaked past preload")
	}
}

func TestHandleConnResume(t *testing.T) {
	m := testManifest()
	s := New(m)
	client, srvConn := net.Pipe()
	go func() {
		defer srvConn.Close()
		_ = s.handleConn(context.Background(), srvConn)
	}()
	defer client.Close()

	held := player.HeldSummary{
		NumChunks: m.NumChunks,
		NumTiles:  m.NumTiles(),
		Primary:   make([]byte, (m.NumChunks*m.NumTiles()+7)/8),
		MaskTile:  make([]byte, (m.NumChunks*m.NumTiles()+7)/8),
		MaskFull:  make([]byte, (m.NumChunks+7)/8),
	}
	held.Primary[0] |= 1 << 5 // chunk 0, tile 5
	go func() {
		_ = proto.WriteResume(client, proto.Resume{Version: proto.ProtoVersion, VideoID: "srv", Held: held})
	}()
	msg, err := proto.ReadMessage(client)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != proto.MsgManifest {
		t.Fatalf("resume ack type %d, want manifest", msg.Type)
	}
	if err := proto.WriteRequest(client, proto.Request{Generation: 1, Items: []player.RequestItem{
		{Stream: player.Primary, Chunk: 0, Tile: 5, Quality: 2}, // held: must not be re-sent
		{Stream: player.Primary, Chunk: 0, Tile: 6, Quality: 2},
	}}); err != nil {
		t.Fatal(err)
	}
	msg, err = proto.ReadMessage(client)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != proto.MsgTileData || msg.TileData.Item.Tile != 6 {
		t.Fatalf("resumed session re-sent held tile: %+v", msg.TileData)
	}
	tally := s.Counters()
	if tally.Resumes != 1 || tally.ResumedItems != 1 {
		t.Errorf("counters = %+v, want 1 resume / 1 restored", tally)
	}
	_ = proto.WriteBye(client)
}

func TestHandleConnResumeVersionMismatch(t *testing.T) {
	m := testManifest()
	s := New(m)
	client, srvConn := net.Pipe()
	errCh := make(chan error, 1)
	go func() {
		defer srvConn.Close()
		errCh <- s.handleConn(context.Background(), srvConn)
	}()
	defer client.Close()

	held := emptyHeld(m)
	go func() {
		_ = proto.WriteResume(client, proto.Resume{Version: proto.ProtoVersion + 1, VideoID: "srv", Held: held})
	}()
	msg, err := proto.ReadMessage(client)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != proto.MsgError {
		t.Fatalf("old-version resume got type %d, want a clean MsgError", msg.Type)
	}
	if err := <-errCh; err == nil {
		t.Fatal("version mismatch reported no error")
	}
}

func TestHandleConnContextCancelDrains(t *testing.T) {
	m := testManifest()
	s := New(m)
	client, srvConn := net.Pipe()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.handleConn(ctx, srvConn) }()
	defer client.Close()

	go func() { _ = proto.WriteHello(client, proto.Hello{VideoID: "srv"}) }()
	read := make(chan *proto.Message, 16)
	go func() {
		for {
			msg, err := proto.ReadMessage(client)
			if err != nil {
				close(read)
				return
			}
			read <- msg
		}
	}()
	if msg := <-read; msg.Type != proto.MsgManifest {
		t.Fatalf("expected manifest, got %d", msg.Type)
	}
	if err := proto.WriteRequest(client, proto.Request{Generation: 1, Items: []player.RequestItem{
		{Stream: player.Primary, Chunk: 0, Tile: 0, Quality: 1},
		{Stream: player.Primary, Chunk: 0, Tile: 1, Quality: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	// Let the queue install, then cancel: the handler must flush the
	// queued tiles and sign off with a Bye before closing.
	var tiles int
	var sawBye bool
	timer := time.After(5 * time.Second)
	cancelled := false
	for !sawBye {
		select {
		case msg, ok := <-read:
			if !ok {
				t.Fatalf("connection closed before Bye (tiles=%d)", tiles)
			}
			switch msg.Type {
			case proto.MsgTileData:
				tiles++
				if tiles == 2 && !cancelled {
					cancelled = true
					cancel()
				}
			case proto.MsgBye:
				sawBye = true
			}
		case <-timer:
			t.Fatal("no Bye after cancel")
		}
	}
	if tiles != 2 {
		t.Errorf("drained %d tiles, want 2", tiles)
	}
	if err := <-done; err != context.Canceled {
		t.Errorf("handler returned %v, want context.Canceled", err)
	}
}

func TestServeWaitsForHandlersOnShutdown(t *testing.T) {
	m := testManifest()
	s := New(m)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, l) }()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := proto.WriteHello(conn, proto.Hello{VideoID: "srv"}); err != nil {
		t.Fatal(err)
	}
	msg, err := proto.ReadMessage(conn)
	if err != nil || msg.Type != proto.MsgManifest {
		t.Fatalf("manifest: %v / type %v", err, msg)
	}
	if err := proto.WriteRequest(conn, proto.Request{Generation: 1, Items: []player.RequestItem{
		{Stream: player.Primary, Chunk: 0, Tile: 0, Quality: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	if msg, err := proto.ReadMessage(conn); err != nil || msg.Type != proto.MsgTileData {
		t.Fatalf("tile: %v / %+v", err, msg)
	}
	cancel()
	// Serve must not return before the in-flight handler has finished its
	// drain; by the time it does, the goodbye is on the wire.
	if err := <-done; err != context.Canceled {
		t.Fatalf("Serve returned %v", err)
	}
	sawBye := false
	for {
		msg, err := proto.ReadMessage(conn)
		if err != nil {
			break
		}
		if msg.Type == proto.MsgBye {
			sawBye = true
		}
	}
	if !sawBye {
		t.Error("no Bye after drained shutdown")
	}
}

func TestServeHonorsContext(t *testing.T) {
	s := New(testManifest())
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, l) }()
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Errorf("Serve returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not stop on cancel")
	}
}

// drainConn consumes everything the server writes so its final Bye (and
// any heartbeat pings) never block on the unbuffered pipe.
func drainConn(c net.Conn) { go func() { _, _ = io.Copy(io.Discard, c) }() }

// readNonPing reads the next non-heartbeat message.
func readNonPing(c net.Conn) (*proto.Message, error) {
	for {
		msg, err := proto.ReadMessage(c)
		if err != nil || msg.Type != proto.MsgPing {
			return msg, err
		}
	}
}

// TestManyConnsSharedStore streams the same video to many concurrent
// sessions of one server — every sender serving by reference from the one
// shared tile store — and verifies each session receives every requested
// tile with the exact manifest size and the requested stream kind. Run
// under -race this pins that the zero-copy send path shares frames across
// connections without synchronization bugs.
func TestManyConnsSharedStore(t *testing.T) {
	m := testManifest()
	s := New(m)
	const sessions = 8
	tiles := m.NumTiles()

	var items []player.RequestItem
	for tl := 0; tl < tiles; tl++ {
		items = append(items, player.RequestItem{Stream: player.Primary, Chunk: 0, Tile: geom.TileID(tl), Quality: 2})
	}
	for tl := 0; tl < tiles; tl++ {
		items = append(items, player.RequestItem{Stream: player.Masking, Chunk: 1, Tile: geom.TileID(tl), Quality: 0})
	}
	items = append(items, player.RequestItem{Stream: player.Masking, Chunk: 2, Full360: true, Quality: 0})

	errs := make(chan error, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client, srvConn := net.Pipe()
			handlerDone := make(chan struct{})
			// Wait for the handler to return before this session counts as
			// finished: counter increments land after the client has read
			// the frame (net.Pipe is a rendezvous), so a snapshot taken on
			// receipt alone would race the accounting.
			defer func() { <-handlerDone }()
			defer client.Close()
			go func() {
				defer close(handlerDone)
				defer srvConn.Close()
				_ = s.handleConn(context.Background(), srvConn)
			}()
			go func() { _ = proto.WriteHello(client, proto.Hello{VideoID: "srv"}) }()
			msg, err := proto.ReadMessage(client)
			if err != nil || msg.Type != proto.MsgManifest {
				errs <- fmt.Errorf("manifest: %v", err)
				return
			}
			go func() {
				_ = proto.WriteRequest(client, proto.Request{Generation: 1, Items: items})
			}()
			got := make(map[player.RequestItem]int64, len(items))
			for len(got) < len(items) {
				msg, err := proto.ReadMessage(client)
				if err != nil {
					errs <- fmt.Errorf("read tile: %v", err)
					return
				}
				switch msg.Type {
				case proto.MsgTileData:
					got[msg.TileData.Item] = int64(len(msg.TileData.Payload))
				case proto.MsgPing:
				default:
					errs <- fmt.Errorf("unexpected message type %d", msg.Type)
					return
				}
			}
			for _, it := range items {
				if got[it] != it.Size(m) {
					errs <- fmt.Errorf("item %+v: got %d bytes, want %d", it, got[it], it.Size(m))
					return
				}
			}
			_ = proto.WriteBye(client)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	tally := s.Counters()
	if tally.PrimarySent != sessions*int64(tiles) || tally.MaskTileSent != sessions*int64(tiles) || tally.MaskFullSent != sessions {
		t.Fatalf("counters %+v do not match %d sessions x full request", tally, sessions)
	}
}

func TestSendStatePreloadIdempotent(t *testing.T) {
	m := testManifest()
	st := newSession(New(m), m, "")
	held := player.HeldSummary{
		NumChunks: m.NumChunks,
		NumTiles:  m.NumTiles(),
		Primary:   make([]byte, (m.NumChunks*m.NumTiles()+7)/8),
		MaskTile:  make([]byte, (m.NumChunks*m.NumTiles()+7)/8),
		MaskFull:  make([]byte, (m.NumChunks+7)/8),
	}
	held.Primary[0] |= 1 << 2
	held.MaskTile[0] |= 1 << 2
	held.MaskFull[0] |= 1 << 0

	if n := st.preload(held); n != 3 {
		t.Fatalf("first preload restored %d, want 3", n)
	}
	// A duplicate summary (same entries) restores nothing new — the resume
	// counter never double-counts a reconnecting client's held tiles.
	if n := st.preload(held); n != 0 {
		t.Fatalf("second preload restored %d, want 0", n)
	}
}

func TestHandleConnMaxConns(t *testing.T) {
	m := testManifest()
	s := New(m)
	s.MaxConns = 1

	// First session occupies the only slot.
	c1, srv1 := net.Pipe()
	done1 := make(chan error, 1)
	go func() {
		defer srv1.Close()
		done1 <- s.handleConn(context.Background(), srv1)
	}()
	defer c1.Close()
	go func() { _ = proto.WriteHello(c1, proto.Hello{VideoID: "srv"}) }()
	if msg, err := proto.ReadMessage(c1); err != nil || msg.Type != proto.MsgManifest {
		t.Fatalf("first session handshake: %v / %+v", err, msg)
	}

	// Saturated: the second handshake is fast-rejected with a typed busy
	// error, before the server reads a single byte from it.
	c2, srv2 := net.Pipe()
	done2 := make(chan error, 1)
	go func() {
		defer srv2.Close()
		done2 <- s.handleConn(context.Background(), srv2)
	}()
	defer c2.Close()
	msg, err := proto.ReadMessage(c2)
	if err != nil {
		t.Fatalf("read rejection: %v", err)
	}
	if msg.Type != proto.MsgError || !proto.IsBusyText(msg.Error) {
		t.Fatalf("saturated server sent %+v, want busy MsgError", msg)
	}
	if err := <-done2; err == nil {
		t.Fatal("rejected handshake reported no error")
	}
	if tally := s.Counters(); tally.RejectedConns != 1 {
		t.Fatalf("RejectedConns = %d, want 1", tally.RejectedConns)
	}

	// Releasing the slot readmits.
	drainConn(c1)
	_ = proto.WriteBye(c1)
	if err := <-done1; err != nil {
		t.Fatalf("first session: %v", err)
	}
	if n := s.ActiveConns(); n != 0 {
		t.Fatalf("ActiveConns = %d after close", n)
	}
	c3, srv3 := net.Pipe()
	go func() {
		defer srv3.Close()
		_ = s.handleConn(context.Background(), srv3)
	}()
	defer c3.Close()
	go func() { _ = proto.WriteHello(c3, proto.Hello{VideoID: "srv"}) }()
	if msg, err := proto.ReadMessage(c3); err != nil || msg.Type != proto.MsgManifest {
		t.Fatalf("post-release handshake: %v / %+v", err, msg)
	}
	drainConn(c3)
	_ = proto.WriteBye(c3)
}

func TestHandleConnDrain(t *testing.T) {
	m := testManifest()
	s := New(m)

	// An in-flight session must survive the drain flip.
	c1, srv1 := net.Pipe()
	done1 := make(chan error, 1)
	go func() {
		defer srv1.Close()
		done1 <- s.handleConn(context.Background(), srv1)
	}()
	defer c1.Close()
	go func() { _ = proto.WriteHello(c1, proto.Hello{VideoID: "srv"}) }()
	if msg, err := proto.ReadMessage(c1); err != nil || msg.Type != proto.MsgManifest {
		t.Fatalf("pre-drain handshake: %v / %+v", err, msg)
	}

	s.Drain()
	if !s.draining.Load() {
		t.Fatal("draining false after Drain()")
	}

	c2, srv2 := net.Pipe()
	go func() {
		defer srv2.Close()
		_ = s.handleConn(context.Background(), srv2)
	}()
	defer c2.Close()
	msg, err := proto.ReadMessage(c2)
	if err != nil {
		t.Fatalf("read drain rejection: %v", err)
	}
	if msg.Type != proto.MsgError || !proto.IsBusyText(msg.Error) {
		t.Fatalf("draining server sent %+v, want busy MsgError", msg)
	}

	// The pre-drain session still works: request a tile and receive it.
	if err := proto.WriteRequest(c1, proto.Request{Generation: 1, Items: []player.RequestItem{
		{Stream: player.Primary, Chunk: 0, Tile: 0, Quality: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	if msg, err := readNonPing(c1); err != nil || msg.Type != proto.MsgTileData {
		t.Fatalf("in-flight session broken by drain: %v / %+v", err, msg)
	}
	drainConn(c1)
	_ = proto.WriteBye(c1)
	if err := <-done1; err != nil {
		t.Fatalf("in-flight session: %v", err)
	}
}

func TestHandleConnCorruptFrameCounted(t *testing.T) {
	m := testManifest()
	s := New(m)
	c, srv := net.Pipe()
	done := make(chan error, 1)
	go func() {
		defer srv.Close()
		done <- s.handleConn(context.Background(), srv)
	}()
	defer c.Close()
	go func() { _ = proto.WriteHello(c, proto.Hello{VideoID: "srv"}) }()
	if msg, err := proto.ReadMessage(c); err != nil || msg.Type != proto.MsgManifest {
		t.Fatalf("handshake: %v / %+v", err, msg)
	}
	drainConn(c)
	// A frame whose CRC trailer does not match its body: type byte for a
	// request with a garbage body and a zeroed checksum.
	frame := []byte{0, 0, 0, 5, byte(proto.MsgRequest), 1, 2, 3, 4, 0, 0, 0, 0}
	if _, err := c.Write(frame); err != nil {
		t.Fatal(err)
	}
	<-done
	if tally := s.Counters(); tally.CorruptFrames != 1 {
		t.Fatalf("CorruptFrames = %d, want 1", tally.CorruptFrames)
	}
}

// TestCountersAddCoversEveryField fills every field of Counters with a
// distinct value and checks Add doubles each one, by reflection: a counter
// added to the struct later and forgotten in Add (the way six hand-written
// cross-instance sums each forgot different fields) fails here.
func TestCountersAddCoversEveryField(t *testing.T) {
	var c Counters
	v := reflect.ValueOf(&c).Elem()
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Kind() != reflect.Int64 {
			t.Fatalf("Counters.%s is %s; Add and this test assume int64 fields", v.Type().Field(i).Name, v.Field(i).Kind())
		}
		v.Field(i).SetInt(int64(100 + i))
	}
	sum := c
	sum.Add(c)
	sv := reflect.ValueOf(sum)
	for i := 0; i < sv.NumField(); i++ {
		if got, want := sv.Field(i).Int(), int64(2*(100+i)); got != want {
			t.Errorf("after Add, Counters.%s = %d, want %d", sv.Type().Field(i).Name, got, want)
		}
	}
}
