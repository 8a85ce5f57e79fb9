package proto

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dragonfly/internal/player"
)

// FuzzReadMessage hammers the frame decoder with arbitrary bytes: it must
// never panic and never allocate beyond the frame cap. Run with
// `go test -fuzz FuzzReadMessage ./internal/proto` for a real campaign;
// under plain `go test` the seed corpus below runs as regression cases.
func FuzzReadMessage(f *testing.F) {
	// Seed with valid frames of every type, every golden vector under
	// testdata/, plus known-bad shapes.
	var hello, req, tile, bye, ping, resume bytes.Buffer
	_ = WriteHello(&hello, Hello{VideoID: "v1"})
	_ = WriteRequest(&req, Request{Generation: 3, Items: []player.RequestItem{
		{Stream: player.Primary, Chunk: 1, Tile: 2, Quality: 3},
	}})
	_ = WriteTileData(&tile, TileData{
		Item:    player.RequestItem{Stream: player.Masking, Chunk: 0, Full360: true},
		Payload: []byte{1, 2, 3},
	})
	_ = WriteBye(&bye)
	_ = WritePing(&ping)
	_ = WriteResume(&resume, Resume{Version: ProtoVersion, VideoID: "v1", Held: player.HeldSummary{
		NumChunks: 2, NumTiles: 4,
		Primary:  []byte{0x81},
		MaskTile: []byte{0x10},
		MaskFull: []byte{0x01},
	}})
	f.Add(hello.Bytes())
	f.Add(req.Bytes())
	f.Add(tile.Bytes())
	f.Add(bye.Bytes())
	f.Add(ping.Bytes())
	f.Add(resume.Bytes())
	golden, err := filepath.Glob("testdata/*.golden")
	if err != nil || len(golden) == 0 {
		f.Fatalf("no golden vectors to seed from: %v", err)
	}
	for _, path := range golden {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte{0, 0, 0, 1, 99})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1})
	f.Add([]byte{})
	// Wire-v3 trailer shapes: a frame with its CRC zeroed, one with a
	// single body bit flipped (trailer now stale), and one truncated
	// mid-trailer — all must fail cleanly.
	zeroed := append([]byte(nil), tile.Bytes()...)
	copy(zeroed[len(zeroed)-4:], []byte{0, 0, 0, 0})
	f.Add(zeroed)
	flipped := append([]byte(nil), req.Bytes()...)
	flipped[6] ^= 0x01
	f.Add(flipped)
	f.Add(bye.Bytes()[:len(bye.Bytes())-2])
	// Legacy wire-v2 frame (no trailer): a v3 reader must reject it, not
	// desync.
	f.Add(v2Frame(MsgHello, []byte{2, 'v', '1'}))

	// ReadMessage borrows its buffer from a pool. Reading a frame unrelated
	// to any input before each read of the input leaves that buffer, which
	// the read borrows next, full of other bytes.
	var unrelated bytes.Buffer
	_ = WriteTileData(&unrelated, TileData{
		Item:    player.RequestItem{Stream: player.Primary, Chunk: 5, Tile: 6, Quality: 1},
		Payload: bytes.Repeat([]byte{0xEE}, 16<<10),
	})
	dirtyPool := func(t *testing.T) {
		if _, err := ReadMessage(bytes.NewReader(unrelated.Bytes())); err != nil {
			t.Fatal(err)
		}
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		dirtyPool(t)
		msg, err := ReadMessage(bytes.NewReader(raw))
		if err == nil && msg == nil {
			t.Fatal("nil message without error")
		}
		// The unrelated frame refills the buffer the message was read from,
		// and the message must not change: ReadMessageBuf, which lays
		// header, body and trailer out in a buffer another frame has used,
		// must reach the same verdict and decode the same message.
		dirtyPool(t)
		dirty := bytes.Repeat([]byte{0xEE}, 24)
		pooled, _, perr := ReadMessageBuf(bytes.NewReader(raw), dirty)
		if (err == nil) != (perr == nil) || !reflect.DeepEqual(msg, pooled) {
			t.Fatalf("ReadMessage gives %+v, %v; ReadMessageBuf over a used buffer %+v, %v", msg, err, pooled, perr)
		}
		// A second ReadMessage, over the dirtied pool, agrees with the first.
		again, aerr := ReadMessage(bytes.NewReader(raw))
		if (err == nil) != (aerr == nil) || !reflect.DeepEqual(msg, again) {
			t.Fatalf("ReadMessage gives %+v, %v; again over a dirty pool %+v, %v", msg, err, again, aerr)
		}
		if err != nil {
			return
		}
		// Decoded messages must be internally consistent.
		switch msg.Type {
		case MsgRequest:
			for _, it := range msg.Request.Items {
				if !it.Quality.Valid() {
					t.Fatalf("decoded invalid quality %d", it.Quality)
				}
			}
		case MsgResume:
			if !msg.Resume.Held.Valid() {
				t.Fatalf("decoded inconsistent held summary %+v", msg.Resume.Held)
			}
		}
	})
}

// FuzzParseTileData targets the tile-payload decoder directly: arbitrary
// bodies must decode to a consistent item or fail cleanly.
func FuzzParseTileData(f *testing.F) {
	var tile bytes.Buffer
	_ = WriteTileData(&tile, TileData{
		Item:    player.RequestItem{Stream: player.Primary, Chunk: 7, Tile: 11, Quality: 2},
		Payload: []byte("payload"),
	})
	f.Add(tile.Bytes()[5:]) // body only: skip length+type
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, itemWireSize))
	f.Add(bytes.Repeat([]byte{0}, itemWireSize-1))

	f.Fuzz(func(t *testing.T, body []byte) {
		td, err := parseTileData(body)
		if err != nil {
			return
		}
		if !td.Item.Quality.Valid() {
			t.Fatalf("decoded invalid quality %d", td.Item.Quality)
		}
		if len(td.Payload) != len(body)-itemWireSize {
			t.Fatalf("payload length %d from %d-byte body", len(td.Payload), len(body))
		}
	})
}

// FuzzParseResume hammers the resume decoder: it must never panic and
// never produce an inconsistent summary.
func FuzzParseResume(f *testing.F) {
	var resume bytes.Buffer
	_ = WriteResume(&resume, Resume{Version: ProtoVersion, VideoID: "vv", Held: player.HeldSummary{
		NumChunks: 3, NumTiles: 3,
		Primary:  []byte{0xAA, 0x01},
		MaskTile: []byte{0x55, 0x00},
		MaskFull: []byte{0x07},
	}})
	f.Add(resume.Bytes()[5:])
	f.Add([]byte{})
	f.Add([]byte{2, 0})
	f.Add([]byte{2, 255, 0, 0})
	// Hostile dimension claims: counts at and beyond maxResumeDim whose
	// implied bitmaps would dwarf the actual body.
	f.Add([]byte{3, 0, 0, 1, 0, 0, 0, 1, 0, 0})
	f.Add([]byte{3, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, body []byte) {
		r, err := parseResume(body)
		if err != nil {
			return
		}
		if !r.Held.Valid() {
			t.Fatalf("decoded inconsistent held summary %+v", r.Held)
		}
		r.Held.Count() // must not panic on any accepted summary
	})
}
