package proto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"

	"dragonfly/internal/player"
	"dragonfly/internal/video"
)

// TestFrameChecksumDetectsBitFlips flips every bit of a framed message in
// turn: each corruption must surface as an error — ErrChecksum when the
// frame still parses far enough to reach the trailer — and never as a
// silently decoded frame with different content.
func TestFrameChecksumDetectsBitFlips(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTileData(&buf, TileData{
		Item:    player.RequestItem{Stream: player.Primary, Chunk: 3, Tile: 7, Quality: 2},
		Payload: []byte("tile payload bytes"),
	}); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	if _, err := ReadMessage(bytes.NewReader(clean)); err != nil {
		t.Fatalf("clean frame rejected: %v", err)
	}
	for bit := 0; bit < len(clean)*8; bit++ {
		raw := append([]byte(nil), clean...)
		raw[bit/8] ^= 1 << uint(bit%8)
		msg, err := ReadMessage(bytes.NewReader(raw))
		if err == nil {
			t.Fatalf("bit flip at %d decoded silently: %+v", bit, msg)
		}
	}
}

// TestFrameChecksumMismatchIsTyped corrupts a body byte (framing intact)
// and checks the error is the ErrChecksum sentinel the corruption counters
// key on.
func TestFrameChecksumMismatchIsTyped(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHello(&buf, Hello{VideoID: "v1"}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[6] ^= 0x40 // inside the body, after [len][type]
	_, err := ReadMessage(bytes.NewReader(raw))
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupt body: err = %v, want ErrChecksum", err)
	}
}

// TestFrameTruncatedTrailer rejects a frame whose stream ends inside the
// CRC trailer.
func TestFrameTruncatedTrailer(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBye(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for cut := len(raw) - trailerSize; cut < len(raw); cut++ {
		if _, err := ReadMessage(bytes.NewReader(raw[:cut])); err == nil {
			t.Errorf("frame truncated at %d/%d accepted", cut, len(raw))
		}
	}
}

// failOnReadReader fails the test if anything tries to read past the
// header: a frame rejected for its declared length must be rejected on the
// header alone.
type failOnReadReader struct{ t *testing.T }

func (r failOnReadReader) Read([]byte) (int, error) {
	r.t.Fatal("body read attempted for an over-cap frame")
	return 0, io.EOF
}

// TestReadFrameRejectsOverCapLengthBeforeReading feeds a length prefix
// beyond MaxFrameSize: the frame must be rejected with errFrameTooLarge
// without a single body read (and therefore without any body allocation).
func TestReadFrameRejectsOverCapLengthBeforeReading(t *testing.T) {
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], MaxFrameSize+1)
	hdr[4] = byte(MsgTileData)
	r := io.MultiReader(bytes.NewReader(hdr[:]), failOnReadReader{t})
	_, _, _, err := readFrameInto(r, nil)
	if !errors.Is(err, errFrameTooLarge) {
		t.Fatalf("err = %v, want errFrameTooLarge", err)
	}
}

// TestReadFrameHostileLengthPrefixAllocation feeds a header whose declared
// length is just under the cap but whose stream carries only a handful of
// bytes. Before the incremental-read fix, the frame reader committed the full
// declared length up front (~48 MB here); now allocation must track the
// bytes that actually arrive. The pre-fix version of this test fails with
// tens of MB allocated.
func TestReadFrameHostileLengthPrefixAllocation(t *testing.T) {
	const claimed = 48 << 20
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], claimed)
	hdr[4] = byte(MsgTileData)
	hostile := append(hdr[:], bytes.Repeat([]byte{0xAB}, 64)...)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, err := readFrameInto(bytes.NewReader(hostile), nil)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("hostile frame accepted")
	}
	// The stream died inside the first chunk, so at most one chunk (plus
	// slack for the runtime) may have been committed — far below the 48 MB
	// the prefix claimed.
	if alloced := after.TotalAlloc - before.TotalAlloc; alloced > 4*readChunk {
		t.Fatalf("hostile 48 MB prefix allocated %d bytes, want <= %d", alloced, 4*readChunk)
	}
}

// TestReadMessageHostileLengthPrefixAllocation holds ReadMessage's borrowed
// buffer to the same guard. With the pool warm from a manifest read, a
// manifest header claiming 48 MB over a stream that delivers 64 bytes
// allocates at most 4*readChunk, and the buffer goes back to the pool on
// the error path: the next such read borrows it and allocates less than
// one chunk.
func TestReadMessageHostileLengthPrefixAllocation(t *testing.T) {
	var wire bytes.Buffer
	if err := WriteManifest(&wire, video.Generate(video.GenParams{ID: "warm", Rows: 3, Cols: 4, NumChunks: 5, Seed: 2})); err != nil {
		t.Fatal(err)
	}
	soloPool(t)
	if _, err := ReadMessage(&wire); err != nil {
		t.Fatal(err)
	}
	const claimed = 48 << 20
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], claimed)
	hdr[4] = byte(MsgManifest)
	hostile := append(hdr[:], bytes.Repeat([]byte{0xAB}, 64)...)
	for i, limit := range []uint64{4 * readChunk, readChunk} {
		var err error
		alloced := allocated(func() { _, err = ReadMessage(bytes.NewReader(hostile)) })
		if err == nil {
			t.Fatal("hostile frame accepted")
		}
		if i == 1 && raceEnabled {
			return // the pool may have dropped the buffer
		}
		if alloced > limit {
			t.Fatalf("hostile 48 MB prefix, read %d: allocated %d bytes, want <= %d", i+1, alloced, limit)
		}
	}
}

// TestReadFrameLargeBodyRoundTrip exercises the chunked body reader on a
// frame bigger than one read chunk.
func TestReadFrameLargeBodyRoundTrip(t *testing.T) {
	payload := bytes.Repeat([]byte{0xC7}, 3*readChunk+12345)
	var buf bytes.Buffer
	if err := WriteTileData(&buf, TileData{
		Item:    player.RequestItem{Stream: player.Masking, Chunk: 1, Full360: true},
		Payload: payload,
	}); err != nil {
		t.Fatal(err)
	}
	msg, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(msg.TileData.Payload, payload) {
		t.Fatal("large payload corrupted through chunked read")
	}
}

// v2Frame is a frame in the legacy wire-v2 layout, which nothing writes
// any more: the 5-byte header and the body, no CRC trailer.
func v2Frame(t MsgType, body []byte) []byte {
	frame := binary.BigEndian.AppendUint32(nil, uint32(1+len(body)))
	return append(append(frame, byte(t)), body...)
}

// TestV2PeerFailsCleanly reads a legacy wire-v2 frame with the v3 reader,
// and lays a v3 stream out as a v2 reader would: both directions must fail
// with a clean error, never decode garbage — the compatibility rule of
// docs/RESILIENCE.md.
func TestV2PeerFailsCleanly(t *testing.T) {
	// v3 reader on a v2 stream: the 4 trailer bytes are missing.
	if _, err := ReadMessage(bytes.NewReader(v2Frame(MsgHello, []byte{2, 'v', '8'}))); err == nil {
		t.Error("v3 reader accepted a v2 frame")
	}

	var v3 bytes.Buffer
	if err := WriteHello(&v3, Hello{VideoID: "v8"}); err != nil {
		t.Fatal(err)
	}
	// Two v3 frames back to back desync a v2 reader by the trailer width.
	if err := WriteHello(&v3, Hello{VideoID: "v9"}); err != nil {
		t.Fatal(err)
	}
	// A v2 reader takes the first frame's header and body, then reads the
	// next header from the first frame's trailer: it must not find a hello
	// the stream holds whole, the phantom frame it would decode.
	raw := v3.Bytes()
	next := raw[frameHeaderSize+int(binary.BigEndian.Uint32(raw))-1:]
	if n := binary.BigEndian.Uint32(next); next[4] == byte(MsgHello) && n >= 1 && int(n)-1 <= len(next)-frameHeaderSize {
		t.Error("v2 reader would decode a phantom hello from a v3 stream")
	}
}

// TestBusyText checks the retryable-rejection convention round-trips and
// does not swallow ordinary errors.
func TestBusyText(t *testing.T) {
	if !IsBusyText(BusyText("connection limit reached")) {
		t.Error("BusyText not recognized as busy")
	}
	if IsBusyText("unknown video \"v1\"") {
		t.Error("fatal error text misread as busy")
	}
}
