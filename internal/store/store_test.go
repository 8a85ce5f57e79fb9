package store

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net"
	"sync"
	"testing"

	"dragonfly/internal/geom"
	"dragonfly/internal/player"
	"dragonfly/internal/proto"
	"dragonfly/internal/video"
)

func testManifest(t testing.TB) *video.Manifest {
	t.Helper()
	return video.Generate(video.GenParams{ID: "store", Rows: 4, Cols: 4, NumChunks: 3, Seed: 11})
}

// flatten concatenates a frame's buffers into one contiguous wire image.
func flatten(bufs [][]byte) []byte {
	var out []byte
	for _, b := range bufs {
		out = append(out, b...)
	}
	return out
}

// TestFramesByteIdenticalToWriteTileData proves the zero-copy path is a
// pure representation change: for EVERY variant the store can serve —
// each (chunk, tile, quality) on both stream kinds plus every full-360°
// masking variant — the pre-framed buffers concatenate to exactly the
// bytes proto.WriteTileData emits, CRC trailer included.
func TestFramesByteIdenticalToWriteTileData(t *testing.T) {
	m := testManifest(t)
	s := New(m)
	checked := 0
	forEachFrame(m, func(_ int, it player.RequestItem) {
		bufs, size, ok := s.Frame(it)
		if !ok {
			t.Fatalf("store cannot serve %+v", it)
		}
		payload := make([]byte, it.Size(m))
		var want bytes.Buffer
		if err := proto.WriteTileData(&want, proto.TileData{Item: it, Payload: payload}); err != nil {
			t.Fatalf("WriteTileData %+v: %v", it, err)
		}
		got := flatten(bufs)
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("frame for %+v differs from WriteTileData output (%d vs %d bytes)", it, len(got), want.Len())
		}
		if size != int64(len(got)) {
			t.Fatalf("frame size %d != wire bytes %d for %+v", size, len(got), it)
		}
		checked++
	})
	if checked != s.NumFrames() {
		t.Fatalf("checked %d frames, store holds %d", checked, s.NumFrames())
	}
}

// TestFramesDecodeWithRequestedStream guards the subtle part of the
// layout: the wire item inside the frame head carries the stream kind, so
// the same (chunk, tile, quality) served as primary and as masking must
// decode back to DIFFERENT wire items matching each request.
func TestFramesDecodeWithRequestedStream(t *testing.T) {
	m := testManifest(t)
	s := New(m)
	for _, stream := range []player.StreamKind{player.Primary, player.Masking} {
		it := player.RequestItem{Stream: stream, Chunk: 1, Tile: 5, Quality: video.Quality(2)}
		bufs, _, ok := s.Frame(it)
		if !ok {
			t.Fatalf("store cannot serve %+v", it)
		}
		msg, err := proto.ReadMessage(bytes.NewReader(flatten(bufs)))
		if err != nil {
			t.Fatalf("decode %v frame: %v", stream, err)
		}
		if msg.Type != proto.MsgTileData || msg.TileData.Item != it {
			t.Fatalf("frame decodes to %+v, requested %+v", msg.TileData.Item, it)
		}
	}
}

// TestLocateRejectsOutOfRange pins the skip-don't-crash contract for
// malformed queue entries.
func TestLocateRejectsOutOfRange(t *testing.T) {
	m := testManifest(t)
	s := New(m)
	bad := []player.RequestItem{
		{Stream: player.Primary, Chunk: m.NumChunks, Tile: 0, Quality: video.Quality(2)},
		{Stream: player.Primary, Chunk: -1, Tile: 0, Quality: video.Quality(2)},
		{Stream: player.Primary, Chunk: 0, Tile: geom.TileID(m.NumTiles()), Quality: video.Quality(2)},
		{Stream: player.Primary, Chunk: 0, Tile: 0, Quality: video.NumQualities},
		{Stream: player.StreamKind(9), Chunk: 0, Tile: 0, Quality: video.Quality(2)},
		// Full-360° exists only on the masking stream.
		{Stream: player.Primary, Chunk: 0, Full360: true, Quality: video.Quality(2)},
	}
	for _, it := range bad {
		if bufs, size, ok := s.AppendFrame(nil, it); ok || len(bufs) != 0 || size != 0 {
			t.Fatalf("AppendFrame accepted out-of-range item %+v", it)
		}
		if ws := s.WireSize(it); ws != 0 {
			t.Fatalf("WireSize %d for out-of-range item %+v", ws, it)
		}
	}
}

// TestSharedReturnsSameStore pins the process-wide dedup: every caller
// with the same manifest shares one store instance.
func TestSharedReturnsSameStore(t *testing.T) {
	m := testManifest(t)
	var wg sync.WaitGroup
	stores := make([]*Store, 8)
	for i := range stores {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stores[i] = Shared(m)
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(stores); i++ {
		if stores[i] != stores[0] {
			t.Fatalf("Shared returned distinct stores for one manifest")
		}
	}
	if stores[0].m != m {
		t.Fatalf("shared store bound to wrong manifest")
	}
}

// TestConcurrentReaders drives many goroutines — standing in for many
// connection sender loops — through the full frame set of one shared
// store simultaneously, each flattening and CRC-verifying every frame.
// Run under -race this proves the serve-by-reference path needs no
// synchronization.
func TestConcurrentReaders(t *testing.T) {
	m := testManifest(t)
	s := Shared(m)
	const readers = 16
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bufs := make([][]byte, 0, 3)
			forEachFrame(m, func(_ int, it player.RequestItem) {
				var ok bool
				bufs, _, ok = s.AppendFrame(bufs[:0], it)
				if !ok {
					errs <- io.ErrUnexpectedEOF
					return
				}
				if _, err := proto.ReadMessage(bytes.NewReader(flatten(bufs))); err != nil {
					errs <- err
				}
			})
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent reader: %v", err)
	}
}

// TestAppendFrameSteadyStateZeroWork pins the tentpole win: serving a
// tile in steady state is slice appends plus a vectored write — zero
// allocations, zero serialization, zero CRC work.
func TestAppendFrameSteadyStateZeroWork(t *testing.T) {
	m := testManifest(t)
	s := New(m)
	it := player.RequestItem{Stream: player.Primary, Chunk: 0, Tile: 3, Quality: video.Highest}
	// Two persistent slices, as in the server's sender loop: WriteTo
	// consumes the net.Buffers value it is called on (reslicing it
	// forward to zero capacity), so the write must run on a COPY of the
	// scratch header — reusing the consumed value would force the next
	// lap's appends to reallocate. Both live outside the measured closure
	// because WriteTo's pointer receiver makes a per-lap local escape.
	scratch := make(net.Buffers, 0, 3)
	var wire net.Buffers
	allocs := testing.AllocsPerRun(200, func() {
		var ok bool
		scratch, _, ok = s.AppendFrame(scratch[:0], it)
		if !ok {
			t.Fatal("AppendFrame failed")
		}
		wire = scratch
		if _, err := wire.WriteTo(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state send allocates %.1f times per frame, want 0", allocs)
	}
}

// Footprint sanity: one store's footprint is per-frame overhead plus the
// one zero block, NOT payloads times frames.
func TestMemoryBytesIsSharedSlabModel(t *testing.T) {
	s := New(testManifest(t))
	want := int64(s.NumFrames()*proto.TileFrameOverhead) + zeroBlockSize
	if got := Footprint(s); got != want {
		t.Fatalf("Footprint = %d, want %d", got, want)
	}
}

// v27 is the fleet_bulk fixture manifest: Table 3's highest-rate video at
// the paper's 12x12 tiles and 60 one-second chunks, 86 700 frames over
// 1.5 GB of payload.
func v27() *video.Manifest {
	e := video.Table3[len(video.Table3)-1]
	return video.Generate(video.GenParams{ID: e.ID, TargetQP42Mbps: e.QP42Mbps, TargetQP22Mbps: e.QP22Mbps, MotionLevel: e.MotionLevel, Seed: e.Seed})
}

// TestFixtureFramesMatchLiteralZeros is the byte oracle for the operator
// path at full scale: every head and trailer New computes from a payload's
// length, for every frame of the benchmark's manifest, is what
// proto.PreframeTile writes walking that many literal zero bytes.
func TestFixtureFramesMatchLiteralZeros(t *testing.T) {
	m := v27()
	s := New(m)
	if s.NumFrames() != 86700 {
		t.Fatalf("fixture has %d frames, want 86700", s.NumFrames())
	}
	var largest int64
	forEachFrame(m, func(_ int, it player.RequestItem) { largest = max(largest, it.Size(m)) })
	literal := make([]byte, largest)
	head, trailer := make([]byte, proto.TileHeadSize), make([]byte, proto.TileTrailerSize)
	forEachFrame(m, func(i int, it player.RequestItem) {
		if err := proto.PreframeTile(head, trailer, it, literal[:it.Size(m)]); err != nil {
			t.Fatalf("PreframeTile %+v: %v", it, err)
		}
		if !bytes.Equal(s.heads[i*proto.TileHeadSize:(i+1)*proto.TileHeadSize], head) ||
			!bytes.Equal(s.trailers[i*proto.TileTrailerSize:(i+1)*proto.TileTrailerSize], trailer) {
			t.Fatalf("frame %d (%+v, %d bytes) differs from PreframeTile over literal zeros", i, it, it.Size(m))
		}
	})
}

// TestOverCapVariantsUnserved pins the documented contract for variants
// the wire cannot carry: they are unserved (WireSize 0) on every stream,
// every other frame is served byte for byte as if they were not there, and
// the footprint is what it is without them — so one absurd size in a
// manifest file is not an allocation of that size.
func TestOverCapVariantsUnserved(t *testing.T) {
	m := testManifest(t)
	// The cap counts a frame's type, item and payload: the head less its
	// 4-byte length prefix, plus the payload.
	const maxPayload = proto.MaxFrameSize - (proto.TileHeadSize - 4)
	m.SetTileSize(1, 5, video.Quality(2), 1<<40)
	m.SetTileSize(2, 0, video.Quality(0), math.MaxInt64)
	m.SetFull360Size(0, video.Highest, maxPayload+1)
	over := map[player.RequestItem]bool{
		{Stream: player.Primary, Chunk: 1, Tile: 5, Quality: video.Quality(2)}:    true,
		{Stream: player.Masking, Chunk: 1, Tile: 5, Quality: video.Quality(2)}:    true,
		{Stream: player.Primary, Chunk: 2, Tile: 0, Quality: video.Quality(0)}:    true,
		{Stream: player.Masking, Chunk: 2, Tile: 0, Quality: video.Quality(0)}:    true,
		{Stream: player.Masking, Chunk: 0, Full360: true, Quality: video.Highest}: true,
	}
	s := New(m)
	forEachFrame(m, func(_ int, it player.RequestItem) {
		bufs, size, ok := s.Frame(it)
		if over[it] {
			if ok || size != 0 || len(bufs) != 0 || s.WireSize(it) != 0 {
				t.Fatalf("over-cap variant %+v served (%d bytes, WireSize %d)", it, size, s.WireSize(it))
			}
			return
		}
		if !ok {
			t.Fatalf("store cannot serve %+v, a neighbour of an over-cap variant", it)
		}
		var want bytes.Buffer
		if err := proto.WriteTileData(&want, proto.TileData{Item: it, Payload: make([]byte, it.Size(m))}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(flatten(bufs), want.Bytes()) {
			t.Fatalf("frame for %+v differs from WriteTileData output", it)
		}
	})
	if got, want := Footprint(s), Footprint(New(testManifest(t))); got != want {
		t.Fatalf("Footprint = %d, want %d: an over-cap variant must cost nothing", got, want)
	}

	// The boundary itself: the largest payload the cap admits is served.
	m.SetFull360Size(0, video.Highest, maxPayload)
	it := player.RequestItem{Stream: player.Masking, Chunk: 0, Full360: true, Quality: video.Highest}
	if got := New(m).WireSize(it); got != proto.TileFrameOverhead+maxPayload {
		t.Fatalf("WireSize at the cap = %d, want %d", got, proto.TileFrameOverhead+maxPayload)
	}
}

// TestNewSurvivesAcceptedManifests: a manifest is bytes we did not write.
// Whatever video.DecodeManifest accepts — here a small manifest's JSON with
// hostile values planted in both size arrays — New must build without
// panicking and without sizing anything by an unsendable variant, and
// every frame must then be either served at its manifest size or absent.
func TestNewSurvivesAcceptedManifests(t *testing.T) {
	var base bytes.Buffer
	if _, err := testManifest(t).WriteTo(&base); err != nil {
		t.Fatal(err)
	}
	hostile := []int64{-5, -1, 0, 1, proto.MaxFrameSize, 1 << 40, math.MaxInt64, math.MinInt64}
	rng := rand.New(rand.NewSource(19))
	accepted := 0
	for trial := 0; trial < 60; trial++ {
		var j map[string]json.RawMessage
		if err := json.Unmarshal(base.Bytes(), &j); err != nil {
			t.Fatal(err)
		}
		for _, field := range []string{"sizes", "full360"} {
			var arr []int64
			if err := json.Unmarshal(j[field], &arr); err != nil {
				t.Fatal(err)
			}
			for k := rng.Intn(3); k > 0; k-- {
				arr[rng.Intn(len(arr))] = hostile[rng.Intn(len(hostile))]
			}
			j[field], _ = json.Marshal(arr)
		}
		raw, err := json.Marshal(j)
		if err != nil {
			t.Fatal(err)
		}
		m, err := video.DecodeManifest(raw)
		if err != nil {
			continue // rejected at the door: nothing reaches the store
		}
		accepted++
		s := New(m)
		if Footprint(s) != int64(s.NumFrames()*proto.TileFrameOverhead)+zeroBlockSize {
			t.Fatalf("trial %d: store of %d bytes, sized by an unsendable variant", trial, Footprint(s))
		}
		forEachFrame(m, func(_ int, it player.RequestItem) {
			if ws := s.WireSize(it); ws != 0 && ws != proto.TileFrameOverhead+it.Size(m) {
				t.Fatalf("trial %d: WireSize(%+v) = %d for a %d-byte variant", trial, it, ws, it.Size(m))
			}
		})
	}
	if accepted == 0 || accepted == 60 {
		t.Fatalf("%d of 60 hostile manifests accepted; the test wants both outcomes", accepted)
	}
}

// BenchmarkStoreNew times the cold-start build of the fleet_bulk fixture's
// store: 86 700 frames, O(frames) since the zero-payload operator.
func BenchmarkStoreNew(b *testing.B) {
	m := v27()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		New(m)
	}
}

// TestStoresShareOneSlab: every store cuts its payloads from the one zero
// block. Two stores serve their largest variants from the same bytes, and a
// variant longer than the block is served as repeated references to it
// (TestLongPayloadsMatchLiteralZeros holds those frames' bytes).
func TestStoresShareOneSlab(t *testing.T) {
	m := testManifest(t)
	big := testManifest(t)
	big.SetFull360Size(0, video.Highest, 3*zeroBlockSize+7)
	a, b := New(m), New(big)
	it := player.RequestItem{Stream: player.Masking, Chunk: 0, Full360: true, Quality: video.Highest}
	for _, s := range []*Store{a, b} {
		bufs, _, _ := s.Frame(it)
		for _, p := range bufs[1 : len(bufs)-1] {
			if &p[0] != &zeros[0] {
				t.Fatalf("a payload buffer of %+v is not cut from the zero block", it)
			}
		}
	}
	if bufs, _, _ := b.Frame(it); len(bufs) != 2+4 {
		t.Fatalf("a payload of 3 blocks and 7 bytes is %d payload buffers, want 4", len(bufs)-2)
	}
}

// TestLongPayloadsMatchLiteralZeros: payloads at and around multiples of
// the zero block frame to exactly the bytes proto.PreframeTile writes over
// that many real zeros, and are as many block references as they need.
func TestLongPayloadsMatchLiteralZeros(t *testing.T) {
	sizes := []int64{zeroBlockSize - 1, zeroBlockSize, zeroBlockSize + 1, 2 * zeroBlockSize, 4*zeroBlockSize + 4321}
	m := testManifest(t)
	for c, size := range sizes[:m.NumChunks] {
		m.SetFull360Size(c, video.Highest, size)
	}
	m.SetTileSize(0, 3, video.Highest, sizes[3])
	m.SetTileSize(1, 4, video.Highest, sizes[4])
	s := New(m)
	items := []player.RequestItem{
		{Stream: player.Masking, Chunk: 0, Full360: true, Quality: video.Highest},
		{Stream: player.Masking, Chunk: 1, Full360: true, Quality: video.Highest},
		{Stream: player.Masking, Chunk: 2, Full360: true, Quality: video.Highest},
		{Stream: player.Primary, Chunk: 0, Tile: 3, Quality: video.Highest},
		{Stream: player.Masking, Chunk: 1, Tile: 4, Quality: video.Highest},
	}
	literal := make([]byte, sizes[len(sizes)-1])
	head, trailer := make([]byte, proto.TileHeadSize), make([]byte, proto.TileTrailerSize)
	for _, it := range items {
		size := it.Size(m)
		if err := proto.PreframeTile(head, trailer, it, literal[:size]); err != nil {
			t.Fatal(err)
		}
		want := append(append(append([]byte(nil), head...), literal[:size]...), trailer...)
		bufs, n, ok := s.Frame(it)
		if !ok || n != int64(len(want)) || !bytes.Equal(flatten(bufs), want) {
			t.Fatalf("%+v, a %d-byte payload: frame differs from PreframeTile over literal zeros", it, size)
		}
		if blocks := (size + zeroBlockSize - 1) / zeroBlockSize; int64(len(bufs)) != 2+blocks {
			t.Fatalf("%+v, a %d-byte payload, is %d buffers, want head, %d block references and trailer", it, size, len(bufs), blocks)
		}
	}
}

// TestFootprintCountsSlabOnce: a set of stores costs each one's heads and
// trailers plus the one zero block, whatever their largest variants.
func TestFootprintCountsSlabOnce(t *testing.T) {
	a := New(testManifest(t))
	big := testManifest(t)
	big.SetFull360Size(2, video.Highest, 5*zeroBlockSize)
	b := New(big)
	frames := int64((a.NumFrames() + b.NumFrames()) * proto.TileFrameOverhead)
	if got, want := Footprint(a, b), frames+zeroBlockSize; got != want {
		t.Fatalf("Footprint = %d, want %d", got, want)
	}
	if got, want := Footprint(a, b), Footprint(a)+Footprint(b)-zeroBlockSize; got != want {
		t.Fatalf("Footprint = %d, want the sum of single-store footprints less one block, %d", got, want)
	}
}
