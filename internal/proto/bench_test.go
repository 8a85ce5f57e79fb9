package proto

import (
	"bytes"
	"io"
	"testing"

	"dragonfly/internal/player"
	"dragonfly/internal/video"
)

// The framing benchmarks time the tile hot path's framed I/O: one framed
// write and one framed read of a typical ~128 KB tile payload, each with
// its CRC32-C trailer. scripts/bench.sh snapshots them into
// BENCH_baseline.json so cmd/benchdiff gates regressions.

const benchPayloadSize = 128 << 10

func benchTile() TileData {
	return TileData{
		Item:    player.RequestItem{Stream: player.Primary, Chunk: 9, Tile: 31, Quality: 3},
		Payload: bytes.Repeat([]byte{0x5A}, benchPayloadSize),
	}
}

func BenchmarkFrameWriteCRC(b *testing.B) {
	td := benchTile()
	body := make([]byte, itemWireSize+len(td.Payload))
	encodeItem(body, td.Item)
	copy(body[itemWireSize:], td.Payload)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := writeFrame(io.Discard, MsgTileData, body); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFrameReadCRC(b *testing.B) {
	var buf bytes.Buffer
	td := benchTile()
	body := make([]byte, itemWireSize+len(td.Payload))
	encodeItem(body, td.Item)
	copy(body[itemWireSize:], td.Payload)
	if err := writeFrame(&buf, MsgTileData, body); err != nil {
		b.Fatal(err)
	}
	frame := buf.Bytes()
	r := bytes.NewReader(frame)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Reset(frame)
		if _, _, _, err := readFrameInto(r, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameWritePreframed measures the steady-state send cost once a
// tile is pre-framed: three buffer writes, no serialization, no CRC. This
// is the per-send work the store-backed server does, against
// BenchmarkFrameWriteCRC's per-send framing it replaces.
func BenchmarkFrameWritePreframed(b *testing.B) {
	td := benchTile()
	head := make([]byte, TileHeadSize)
	trailer := make([]byte, TileTrailerSize)
	if err := PreframeTile(head, trailer, td.Item, td.Payload); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(itemWireSize + len(td.Payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := io.Discard.Write(head); err != nil {
			b.Fatal(err)
		}
		if _, err := io.Discard.Write(td.Payload); err != nil {
			b.Fatal(err)
		}
		if _, err := io.Discard.Write(trailer); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameReadReuse measures the pooled read path in steady state:
// the same tile frame read repeatedly through ReadMessageBuf with a
// recycled buffer, against BenchmarkFrameReadCRC's allocate-per-read
// baseline. The first read, which sizes the buffer, is outside the timer;
// what is left per op is the Message and the TileData it points to.
func BenchmarkFrameReadReuse(b *testing.B) {
	var wire bytes.Buffer
	td := benchTile()
	if err := WriteTileData(&wire, td); err != nil {
		b.Fatal(err)
	}
	frame := wire.Bytes()
	r := bytes.NewReader(frame)
	_, buf, err := ReadMessageBuf(r, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(itemWireSize + len(td.Payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(frame)
		if _, buf, err = ReadMessageBuf(r, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// v8 is the wire_refine manifest: Table 3's v8 at 60 one-second chunks,
// 2.4 MB of JSON on the wire.
func v8() *video.Manifest {
	e := video.Table3[3]
	return video.Generate(video.GenParams{ID: e.ID, TargetQP42Mbps: e.QP42Mbps, TargetQP22Mbps: e.QP22Mbps, MotionLevel: e.MotionLevel, Seed: e.Seed})
}

// BenchmarkWriteManifest times the server's end of a handshake: the
// manifest encoded into its frame and written.
func BenchmarkWriteManifest(b *testing.B) {
	m := v8()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteManifest(io.Discard, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadManifest times the client's end: the frame read through
// ReadMessage, as a handshake reads it, into the pooled buffer the last
// read gave back, and the manifest decoded.
func BenchmarkReadManifest(b *testing.B) {
	var wire bytes.Buffer
	if err := WriteManifest(&wire, v8()); err != nil {
		b.Fatal(err)
	}
	frame := wire.Bytes()
	r := bytes.NewReader(frame)
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(frame)
		if msg, err := ReadMessage(r); err != nil || msg.Manifest == nil {
			b.Fatal(err)
		}
	}
}
