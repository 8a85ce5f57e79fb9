package proto

import (
	"bytes"
	"math"
	"testing"

	"dragonfly/internal/player"
	"dragonfly/internal/video"
)

// writeRecorder counts Write calls and keeps the bytes, to pin the
// one-write-per-frame atomicity contract.
type writeRecorder struct {
	bytes.Buffer
	calls int
}

func (w *writeRecorder) Write(p []byte) (int, error) {
	w.calls++
	return w.Buffer.Write(p)
}

// TestWriteFrameSingleWrite pins the torn-frame fix: every framed write
// reaches the connection as exactly one Write call, so a frame can never
// interleave mid-stream on a conn that serializes Writes. (The wider
// contract — one writer goroutine per direction — is documented on the
// package.)
func TestWriteFrameSingleWrite(t *testing.T) {
	var rec writeRecorder
	if err := WriteHello(&rec, Hello{VideoID: "v"}); err != nil {
		t.Fatal(err)
	}
	if rec.calls != 1 {
		t.Fatalf("WriteHello used %d Write calls, want 1", rec.calls)
	}
	rec.calls = 0
	rec.Reset()
	td := TileData{
		Item:    player.RequestItem{Stream: player.Primary, Chunk: 2, Tile: 7, Quality: 1},
		Payload: bytes.Repeat([]byte{0xA5}, 4096),
	}
	if err := WriteTileData(&rec, td); err != nil {
		t.Fatal(err)
	}
	if rec.calls != 1 {
		t.Fatalf("WriteTileData used %d Write calls, want 1", rec.calls)
	}
	msg, err := ReadMessage(bytes.NewReader(rec.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != MsgTileData || msg.TileData.Item != td.Item || !bytes.Equal(msg.TileData.Payload, td.Payload) {
		t.Fatalf("single-write frame did not round-trip")
	}
}

// TestPreframeTileMatchesWriteTileData proves head || payload || trailer
// is byte-identical to the stream WriteTileData emits — the equivalence
// the store's serve-by-reference path rests on — across payload sizes
// including empty.
func TestPreframeTileMatchesWriteTileData(t *testing.T) {
	items := []player.RequestItem{
		{Stream: player.Primary, Chunk: 0, Tile: 0, Quality: 0},
		{Stream: player.Masking, Chunk: 3, Tile: 15, Quality: 4},
		{Stream: player.Masking, Chunk: 7, Full360: true, Quality: 2},
	}
	for _, it := range items {
		for _, size := range []int{0, 1, 1000, 128 << 10} {
			payload := bytes.Repeat([]byte{0xC3}, size)
			head := make([]byte, TileHeadSize)
			trailer := make([]byte, TileTrailerSize)
			if err := PreframeTile(head, trailer, it, payload); err != nil {
				t.Fatalf("PreframeTile %+v size %d: %v", it, size, err)
			}
			var got bytes.Buffer
			got.Write(head)
			got.Write(payload)
			got.Write(trailer)
			var want bytes.Buffer
			if err := WriteTileData(&want, TileData{Item: it, Payload: payload}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("pre-framed bytes differ from WriteTileData for %+v size %d", it, size)
			}
		}
	}
}

// TestPreframeZeroTileMatchesPreframeTile pins the zero form to the byte
// oracle: for a payload of zeros, the head and the trailer computed from
// the payload's length alone are the ones PreframeTile computes from its
// bytes, up to the largest payload the frame cap admits.
func TestPreframeZeroTileMatchesPreframeTile(t *testing.T) {
	items := []player.RequestItem{
		{Stream: player.Primary, Chunk: 0, Tile: 0, Quality: 0},
		{Stream: player.Masking, Chunk: 59, Tile: 143, Quality: 4},
		{Stream: player.Masking, Chunk: 7, Full360: true, Quality: 2},
	}
	zeros := make([]byte, maxTilePayload)
	for _, it := range items {
		for _, size := range []int{0, 1, 219, 1000, 128 << 10, 3<<20 + 12345, maxTilePayload} {
			head, trailer := make([]byte, TileHeadSize), make([]byte, TileTrailerSize)
			if err := PreframeZeroTile(head, trailer, it, int64(size)); err != nil {
				t.Fatalf("PreframeZeroTile %+v size %d: %v", it, size, err)
			}
			wantHead, wantTrailer := make([]byte, TileHeadSize), make([]byte, TileTrailerSize)
			if err := PreframeTile(wantHead, wantTrailer, it, zeros[:size]); err != nil {
				t.Fatalf("PreframeTile %+v size %d: %v", it, size, err)
			}
			if !bytes.Equal(head, wantHead) || !bytes.Equal(trailer, wantTrailer) {
				t.Fatalf("%+v size %d: zero form wrote %x / %x, literal zeros give %x / %x",
					it, size, head, trailer, wantHead, wantTrailer)
			}
		}
	}
}

// maxTilePayload is the largest payload a tile frame can carry under
// MaxFrameSize.
const maxTilePayload = MaxFrameSize - 1 - itemWireSize

// TestPreframeTileRejectsBadSizes covers the error paths: short buffers
// and over-cap frames.
func TestPreframeTileRejectsBadSizes(t *testing.T) {
	it := player.RequestItem{Stream: player.Primary, Chunk: 0, Tile: 0, Quality: 0}
	if err := PreframeTile(make([]byte, TileHeadSize-1), make([]byte, TileTrailerSize), it, nil); err == nil {
		t.Fatal("short head accepted")
	}
	if err := PreframeTile(make([]byte, TileHeadSize), make([]byte, TileTrailerSize-1), it, nil); err == nil {
		t.Fatal("short trailer accepted")
	}
	head := make([]byte, TileHeadSize)
	trailer := make([]byte, TileTrailerSize)
	if err := PreframeTile(head, trailer, it, make([]byte, MaxFrameSize)); err == nil {
		t.Fatal("over-cap payload accepted")
	}
	// The zero form takes its size from a manifest, bytes we did not write:
	// negative and near-MaxInt64 sizes are refused like any over-cap one.
	for _, size := range []int64{-1, -5, maxTilePayload + 1, 1 << 40, math.MaxInt64} {
		if err := PreframeZeroTile(head, trailer, it, size); err == nil {
			t.Fatalf("zero payload of size %d accepted", size)
		}
	}
	for _, b := range append(head, trailer...) {
		if b != 0 {
			t.Fatal("failed preframe wrote into head or trailer; store relies on the zeroed-head sentinel")
		}
	}
}

// TestReadMessageBufReusesBuffer pins the pooled read path's ownership
// contract: the returned buffer is reused across calls once grown, and
// the message's payload aliases it.
func TestReadMessageBufReusesBuffer(t *testing.T) {
	var wire bytes.Buffer
	td := TileData{
		Item:    player.RequestItem{Stream: player.Primary, Chunk: 1, Tile: 2, Quality: 3},
		Payload: bytes.Repeat([]byte{0x11}, 64<<10),
	}
	const frames = 4
	for i := 0; i < frames; i++ {
		if err := WriteTileData(&wire, td); err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(wire.Bytes())
	var buf []byte
	var lastCap int
	for i := 0; i < frames; i++ {
		var msg *Message
		var err error
		msg, buf, err = ReadMessageBuf(r, buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if msg.Type != MsgTileData || !bytes.Equal(msg.TileData.Payload, td.Payload) {
			t.Fatalf("frame %d: wrong message", i)
		}
		if i > 0 && cap(buf) != lastCap {
			t.Fatalf("frame %d: buffer not reused (cap %d -> %d)", i, lastCap, cap(buf))
		}
		lastCap = cap(buf)
	}
}

// TestReadMessageBufAllocs pins the FrameRead allocation fix: with a
// warmed buffer, reading a 128 KB tile frame allocates only the
// fixed-size message structs — the ~147 KB/op body churn is gone.
func TestReadMessageBufAllocs(t *testing.T) {
	var wire bytes.Buffer
	td := TileData{
		Item:    player.RequestItem{Stream: player.Primary, Chunk: 1, Tile: 2, Quality: 3},
		Payload: bytes.Repeat([]byte{0x22}, 128<<10),
	}
	if err := WriteTileData(&wire, td); err != nil {
		t.Fatal(err)
	}
	frame := wire.Bytes()
	r := bytes.NewReader(frame)
	var buf []byte
	var msg *Message
	var err error
	if msg, buf, err = ReadMessageBuf(r, buf); err != nil || msg.Type != MsgTileData {
		t.Fatalf("warm-up read: %v", err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(frame)
		msg, buf, err = ReadMessageBuf(r, buf)
		if err != nil {
			t.Fatal(err)
		}
	})
	// Only the two fixed-size descriptors remain, the Message and the
	// TileData it points to. The header and trailer are read into the
	// caller's buffer beside the body (as stack arrays they escaped through
	// io.ReadFull's interface call, two more allocations a frame), and the
	// variable-size body buffer is recycled —
	// TestReadMessageBufReusesBuffer pins that.
	if allocs > 2 {
		t.Fatalf("ReadMessageBuf allocates %.1f/op with a warm buffer, want <= 2 fixed-size", allocs)
	}
}

// TestReadMessageBufChecksum keeps the pooled path honest about
// integrity: a flipped payload bit still fails the frame trailer.
func TestReadMessageBufChecksum(t *testing.T) {
	var wire bytes.Buffer
	if err := WriteTileData(&wire, TileData{
		Item:    player.RequestItem{Stream: player.Primary, Chunk: 0, Tile: 0, Quality: 0},
		Payload: bytes.Repeat([]byte{0x33}, 1024),
	}); err != nil {
		t.Fatal(err)
	}
	frame := wire.Bytes()
	frame[TileHeadSize+100] ^= 0x01
	if _, _, err := ReadMessageBuf(bytes.NewReader(frame), nil); err != ErrChecksum {
		t.Fatalf("corrupt frame returned %v, want ErrChecksum", err)
	}
}

// TestReadMessageBufRisingFramesDouble: a reused buffer meeting frames of
// ever-larger size doubles instead of reallocating to each new maximum, so
// N rising frames reallocate O(log N) times, and it never grows past twice
// the largest frame it has held.
func TestReadMessageBufRisingFramesDouble(t *testing.T) {
	const frames = 64
	var wire bytes.Buffer
	for i := 1; i <= frames; i++ {
		if err := WriteTileData(&wire, TileData{
			Item:    player.RequestItem{Stream: player.Primary, Chunk: i, Tile: 2, Quality: 3},
			Payload: bytes.Repeat([]byte{byte(i)}, 4096*i),
		}); err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(wire.Bytes())
	var buf []byte
	reallocs, largest := 0, 0
	for i := 1; i <= frames; i++ {
		before := cap(buf)
		msg, b, err := ReadMessageBuf(r, buf)
		if err != nil || msg.TileData.Item.Chunk != i || len(msg.TileData.Payload) != 4096*i {
			t.Fatalf("frame %d: %v", i, err)
		}
		largest = max(largest, len(b))
		if cap(b) != before {
			reallocs++
		}
		if cap(b) > 2*largest {
			t.Fatalf("frame %d grew the buffer to %d bytes; no frame so far needed more than %d", i, cap(b), largest)
		}
		buf = b
	}
	// log2(64) = 6 doublings from the first frame's size, plus that first
	// allocation.
	if reallocs > 8 {
		t.Fatalf("%d rising frames reallocated the buffer %d times, want O(log n)", frames, reallocs)
	}
}

// TestManifestSurvivesBufferReuse: a manifest decoded through
// ReadMessageBuf owns its memory. The next frame read into the same buffer
// overwrites every byte the manifest was decoded from, and the manifest is
// unchanged.
func TestManifestSurvivesBufferReuse(t *testing.T) {
	m := video.Generate(video.GenParams{ID: "alias", Rows: 3, Cols: 4, NumChunks: 5, Seed: 2})
	var wire bytes.Buffer
	if err := WriteManifest(&wire, m); err != nil {
		t.Fatal(err)
	}
	want, err := m.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteTileData(&wire, TileData{
		Item: player.RequestItem{Stream: player.Primary, Chunk: 0, Tile: 0, Quality: 0},
		// The same frame length as the manifest's, so it fills the buffer.
		Payload: bytes.Repeat([]byte{0xEE}, len(want)-itemWireSize),
	}); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(wire.Bytes())
	msg, buf, err := ReadMessageBuf(r, nil)
	if err != nil || msg.Manifest == nil {
		t.Fatalf("manifest frame: %v", err)
	}
	got, first := msg.Manifest, &buf[0]
	if msg, buf, err = ReadMessageBuf(r, buf); err != nil || msg.TileData == nil {
		t.Fatalf("tile frame: %v", err)
	}
	if &buf[0] != first {
		t.Fatal("the tile frame was not read into the manifest's buffer")
	}
	after, err := got.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, want) {
		t.Fatal("the decoded manifest changed when its frame buffer was reused")
	}
}
