package proto

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"dragonfly/internal/player"
	"dragonfly/internal/video"
)

// raceEnabled is set under the race detector, which makes sync.Pool drop a
// random quarter of what is Put in it: a buffer the pool should hand back
// is sometimes allocated anew there.
var raceEnabled bool

// soloPool runs the rest of the test on one P with the collector off, so
// framePool keeps what is Put in it and every Get comes from the one P the
// Put went to, and empties the pool. The next Get after a Put returns the
// buffer that Put gave back.
func soloPool(t *testing.T) {
	procs := runtime.GOMAXPROCS(1)
	gc := debug.SetGCPercent(-1)
	t.Cleanup(func() {
		debug.SetGCPercent(gc)
		runtime.GOMAXPROCS(procs)
	})
	for cap(*framePool.Get().(*[]byte)) > 0 { // only New hands out an empty buffer
	}
}

// allocated returns the bytes the heap allocated while f ran.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// samePooled reports whether the buffer framePool hands out next shares
// b's backing array: whether the calls since b was Put borrowed b and gave
// it back without growing it.
func samePooled(b []byte) bool {
	return &(*framePool.Get().(*[]byte))[:1][0] == &b[:1][0]
}

// TestFramesUnchangedOverDirtyPool: a frame assembled in a pooled buffer
// another frame has filled is byte for byte the frame written into a fresh
// one. Before each write the pool holds only a larger buffer of 0xFF
// bytes; the expected values are the frames as written before the pool.
func TestFramesUnchangedOverDirtyPool(t *testing.T) {
	soloPool(t)
	for _, c := range []struct {
		name  string
		write func(io.Writer) error
		want  string // the frame in hex, or its SHA-256 when sha is set
		sha   bool
	}{
		{"manifest v8", func(w io.Writer) error { return WriteManifest(w, v8()) },
			"29650b21fccc7d295b8f9fd49000ddffeeb119da9ee74961cc0167a326d4d731", true},
		{"request", func(w io.Writer) error {
			return WriteRequest(w, Request{Generation: 7, Items: []player.RequestItem{
				{Stream: player.Primary, Chunk: 3, Tile: 17, Quality: 4},
				{Stream: player.Masking, Chunk: 4, Full360: true, Quality: 1},
			}})
		}, "0000001f030000000700000002000000000300000000110401000000040100000000012bbb1fac", false},
		{"hello", func(w io.Writer) error { return WriteHello(w, Hello{VideoID: "v8", Cohort: "low:3g"}) },
			"0000000b01027638066c6f773a3367debafcf6", false},
	} {
		dirty := bytes.Repeat([]byte{0xFF}, 4<<20)
		framePool.Put(&dirty)
		var wire bytes.Buffer
		if err := c.write(&wire); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := hex.EncodeToString(wire.Bytes())
		if c.sha {
			sum := sha256.Sum256(wire.Bytes())
			got = hex.EncodeToString(sum[:])
		}
		if got != c.want {
			t.Errorf("%s over a dirty pool: %s, want %s", c.name, got, c.want)
		}
		if !raceEnabled && !samePooled(dirty) {
			t.Errorf("%s was not assembled in the pooled buffer", c.name)
		}
	}
}

// TestReadMessageOwnsItsMemory: ReadMessage reads every frame into one
// pooled buffer, and nothing it returns points into that buffer. A manifest
// is unchanged after later reads of another manifest, a tile and a resume,
// and the tile's payload and the resume's held bitmaps after a later
// manifest read.
func TestReadMessageOwnsItsMemory(t *testing.T) {
	first := video.Generate(video.GenParams{ID: "own-a", Rows: 3, Cols: 4, NumChunks: 5, Seed: 2})
	second := video.Generate(video.GenParams{ID: "own-b", Rows: 4, Cols: 6, NumChunks: 9, Seed: 5})
	want, err := first.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	td := TileData{
		Item: player.RequestItem{Stream: player.Primary, Chunk: 1, Tile: 2, Quality: 3},
		// As long as the first manifest, so it covers the bytes it was read from.
		Payload: bytes.Repeat([]byte{0xEE}, len(want)),
	}
	res := Resume{Version: ProtoVersion, VideoID: "own-a", Held: heldSummary(), Cohort: "high:5g"}
	var wire bytes.Buffer
	for _, write := range []func() error{
		func() error { return WriteManifest(&wire, first) },
		func() error { return WriteManifest(&wire, second) },
		func() error { return WriteTileData(&wire, td) },
		func() error { return WriteResume(&wire, res) },
		func() error { return WriteManifest(&wire, second) },
	} {
		if err := write(); err != nil {
			t.Fatal(err)
		}
	}
	soloPool(t)
	pooled := make([]byte, 0, wire.Len())
	framePool.Put(&pooled)
	var got []*Message
	for range 5 {
		msg, err := ReadMessage(&wire)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, msg)
	}
	if !raceEnabled && !samePooled(pooled) {
		t.Fatal("the frames were not read into the pooled buffer")
	}
	after, err := got[0].Manifest.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, want) {
		t.Error("a manifest from ReadMessage changed when later frames reused the buffer")
	}
	if !reflect.DeepEqual(*got[2].TileData, td) {
		t.Error("a tile from ReadMessage changed when a later manifest reused the buffer")
	}
	if !reflect.DeepEqual(*got[3].Resume, res) {
		t.Errorf("a resume from ReadMessage changed when a later manifest reused the buffer: %+v", got[3].Resume)
	}
}

// TestHandshakeFramesReused pins the pool at both ends of a session start:
// once a first WriteManifest and a first ReadMessage have sized the pooled
// buffer, a second of each allocates less than the frame it moves, where
// each used to allocate at least one frame's worth.
func TestHandshakeFramesReused(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random quarter of its Puts under the race detector")
	}
	soloPool(t)
	m := v8()
	var wire bytes.Buffer
	if err := WriteManifest(&wire, m); err != nil {
		t.Fatal(err)
	}
	frame := wire.Bytes()
	if _, err := ReadMessage(bytes.NewReader(frame)); err != nil {
		t.Fatal(err)
	}
	write := allocated(func() {
		if err := WriteManifest(io.Discard, m); err != nil {
			t.Fatal(err)
		}
	})
	read := allocated(func() {
		if msg, err := ReadMessage(bytes.NewReader(frame)); err != nil || msg.Manifest == nil {
			t.Fatal(err)
		}
	})
	if write >= uint64(len(frame)) {
		t.Errorf("a second WriteManifest allocated %d bytes, the frame is %d", write, len(frame))
	}
	if read >= uint64(len(frame)) {
		t.Errorf("a second ReadMessage of the manifest allocated %d bytes, the frame is %d", read, len(frame))
	}
}
