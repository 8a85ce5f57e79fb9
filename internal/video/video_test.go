package video

import (
	"bytes"
	"encoding/json"
	"hash/crc32"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"dragonfly/internal/geom"
	"dragonfly/internal/stats"
)

func testManifest(t testing.TB) *Manifest {
	t.Helper()
	return Generate(GenParams{ID: "test", TargetQP42Mbps: 2, TargetQP22Mbps: 22, MotionLevel: 0.5, Seed: 7, NumChunks: 10})
}

func TestQualityQP(t *testing.T) {
	if Lowest.QP() != 42 || Highest.QP() != 22 {
		t.Fatalf("QP ladder wrong: lowest %d highest %d", Lowest.QP(), Highest.QP())
	}
	prev := 100
	for q := Quality(0); q < NumQualities; q++ {
		if q.QP() >= prev {
			t.Fatalf("qps not strictly decreasing at %d", q)
		}
		prev = q.QP()
	}
}

func TestQualityValid(t *testing.T) {
	if Quality(-1).Valid() || Quality(NumQualities).Valid() {
		t.Error("out-of-range quality reported valid")
	}
	for q := Quality(0); q < NumQualities; q++ {
		if !q.Valid() {
			t.Errorf("quality %d invalid", q)
		}
	}
}

func TestQualityQPPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("QP() on invalid quality did not panic")
		}
	}()
	Quality(99).QP()
}

func TestManifestDimensions(t *testing.T) {
	m := testManifest(t)
	if m.NumTiles() != 144 {
		t.Errorf("NumTiles = %d", m.NumTiles())
	}
	if m.NumFrames() != 300 {
		t.Errorf("NumFrames = %d", m.NumFrames())
	}
	if m.ChunkOfFrame(0) != 0 || m.ChunkOfFrame(29) != 0 || m.ChunkOfFrame(30) != 1 {
		t.Error("ChunkOfFrame boundaries wrong")
	}
	if m.ChunkOfFrame(-5) != 0 {
		t.Error("negative frame should clamp to chunk 0")
	}
	if m.ChunkOfFrame(100000) != m.NumChunks-1 {
		t.Error("overflow frame should clamp to last chunk")
	}
	if m.FirstFrame(3) != 90 {
		t.Errorf("FirstFrame(3) = %d", m.FirstFrame(3))
	}
}

func TestSizesMonotoneInQuality(t *testing.T) {
	m := testManifest(t)
	for c := 0; c < m.NumChunks; c++ {
		for tl := 0; tl < m.NumTiles(); tl += 5 {
			prev := int64(-1)
			for q := Quality(0); q < NumQualities; q++ {
				s := m.TileSize(c, geom.TileID(tl), q)
				if s <= prev {
					t.Fatalf("tile size not increasing: chunk %d tile %d q %d: %d <= %d", c, tl, q, s, prev)
				}
				prev = s
			}
		}
		prevF := int64(-1)
		for q := Quality(0); q < NumQualities; q++ {
			f := m.Full360Size(c, q)
			if f <= prevF {
				t.Fatalf("full360 size not increasing: chunk %d q %d", c, q)
			}
			prevF = f
		}
	}
}

func TestPSNRMonotoneInQuality(t *testing.T) {
	m := testManifest(t)
	for c := 0; c < m.NumChunks; c += 3 {
		for tl := 0; tl < m.NumTiles(); tl++ {
			for q := Quality(1); q < NumQualities; q++ {
				lo := m.TilePSNR(c, geom.TileID(tl), q-1)
				hi := m.TilePSNR(c, geom.TileID(tl), q)
				if hi < lo {
					t.Fatalf("PSNR not monotone: chunk %d tile %d q %d", c, tl, q)
				}
				if m.TilePSPNR(c, geom.TileID(tl), q) < m.TilePSPNR(c, geom.TileID(tl), q-1) {
					t.Fatalf("PSPNR not monotone: chunk %d tile %d q %d", c, tl, q)
				}
			}
		}
	}
}

func TestPSPNRAtLeastPSNR(t *testing.T) {
	m := testManifest(t)
	for c := 0; c < m.NumChunks; c += 2 {
		for tl := 0; tl < m.NumTiles(); tl += 3 {
			for q := Quality(0); q < NumQualities; q++ {
				if m.TilePSPNR(c, geom.TileID(tl), q) < m.TilePSNR(c, geom.TileID(tl), q)-1e-9 {
					t.Fatalf("PSPNR < PSNR at chunk %d tile %d q %d", c, tl, q)
				}
			}
		}
	}
}

func TestBlackPSNRLow(t *testing.T) {
	m := testManifest(t)
	for c := 0; c < m.NumChunks; c++ {
		for tl := 0; tl < m.NumTiles(); tl++ {
			b := m.BlackPSNR(c, geom.TileID(tl))
			if b < 2 || b > 25 {
				t.Fatalf("black PSNR %v out of plausible range at chunk %d tile %d", b, c, tl)
			}
			if b >= m.TilePSNR(c, geom.TileID(tl), Lowest) {
				t.Fatalf("black PSNR should be below lowest encoding PSNR (chunk %d tile %d)", c, tl)
			}
		}
	}
}

func TestTiledLargerThanFull360(t *testing.T) {
	m := testManifest(t)
	for c := 0; c < m.NumChunks; c++ {
		for q := Quality(0); q < NumQualities; q++ {
			if m.ChunkTiledSize(c, q) <= m.Full360Size(c, q) {
				t.Fatalf("tiled encoding should cost more than untiled: chunk %d q %d", c, q)
			}
		}
	}
}

func TestTilingOverheadShrinksWithQuality(t *testing.T) {
	m := testManifest(t)
	loOverhead := float64(m.ChunkTiledSize(0, Lowest)) / float64(m.Full360Size(0, Lowest))
	hiOverhead := float64(m.ChunkTiledSize(0, Highest)) / float64(m.Full360Size(0, Highest))
	if loOverhead <= hiOverhead {
		t.Errorf("tiling overhead should shrink with quality: lo %.3f hi %.3f", loOverhead, hiOverhead)
	}
}

func TestCalibrationMatchesTargets(t *testing.T) {
	for _, e := range Table3 {
		m := Generate(GenParams{ID: e.ID, TargetQP42Mbps: e.QP42Mbps, TargetQP22Mbps: e.QP22Mbps, MotionLevel: e.MotionLevel, Seed: e.Seed})
		got42 := m.MedianFull360Mbps(Lowest)
		got22 := m.MedianFull360Mbps(Highest)
		if math.Abs(got42-e.QP42Mbps)/e.QP42Mbps > 0.25 {
			t.Errorf("%s: QP42 median %.2f Mbps, target %.2f", e.ID, got42, e.QP42Mbps)
		}
		if math.Abs(got22-e.QP22Mbps)/e.QP22Mbps > 0.25 {
			t.Errorf("%s: QP22 median %.2f Mbps, target %.2f", e.ID, got22, e.QP22Mbps)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := GenParams{ID: "d", TargetQP42Mbps: 2, Seed: 42, NumChunks: 5}
	a := Generate(p)
	b := Generate(p)
	for c := 0; c < a.NumChunks; c++ {
		for tl := 0; tl < a.NumTiles(); tl++ {
			for q := Quality(0); q < NumQualities; q++ {
				if a.TileSize(c, geom.TileID(tl), q) != b.TileSize(c, geom.TileID(tl), q) {
					t.Fatal("generation not deterministic")
				}
			}
		}
	}
}

func TestDefaultDataset(t *testing.T) {
	ds := Dataset(0)
	if len(ds) != 7 {
		t.Fatalf("dataset has %d videos, want 7", len(ds))
	}
	seen := map[string]bool{}
	for _, m := range ds {
		if seen[m.VideoID] {
			t.Errorf("duplicate video id %s", m.VideoID)
		}
		seen[m.VideoID] = true
		if m.NumChunks != 60 || m.Rows != 12 || m.Cols != 12 {
			t.Errorf("%s: unexpected dims", m.VideoID)
		}
	}
}

func TestGroupTilesPartition(t *testing.T) {
	m := testManifest(t)
	groups := GroupTiles(m, 0, DefaultGroupCount)
	if len(groups) != DefaultGroupCount {
		t.Fatalf("got %d groups, want %d", len(groups), DefaultGroupCount)
	}
	seen := map[geom.TileID]bool{}
	for _, g := range groups {
		if len(g) == 0 {
			t.Fatal("empty group")
		}
		for _, id := range g {
			if seen[id] {
				t.Fatalf("tile %d in two groups", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != m.NumTiles() {
		t.Fatalf("groups cover %d tiles, want %d", len(seen), m.NumTiles())
	}
}

func TestGroupTilesSensitivityOrdered(t *testing.T) {
	m := testManifest(t)
	groups := GroupTiles(m, 0, 10)
	prevMax := -math.MaxFloat64
	for _, g := range groups {
		lo, hi := math.MaxFloat64, -math.MaxFloat64
		for _, id := range g {
			s := QualitySensitivity(m, 0, id)
			lo = math.Min(lo, s)
			hi = math.Max(hi, s)
		}
		if lo < prevMax-1e-9 {
			t.Fatal("groups not ordered by sensitivity")
		}
		prevMax = hi
	}
}

func TestGroupedChunkSmallerThanFixed(t *testing.T) {
	m := testManifest(t)
	for c := 0; c < m.NumChunks; c += 2 {
		groups := GroupTiles(m, c, DefaultGroupCount)
		for q := Quality(0); q < NumQualities; q++ {
			grouped := GroupedChunkSize(m, c, groups, q)
			fixed := m.ChunkTiledSize(c, q)
			if grouped >= fixed {
				t.Fatalf("grouped (%d) should beat fixed tiling (%d) at chunk %d q %d", grouped, fixed, c, q)
			}
		}
	}
}

func TestFixedVsGroupedOverheadShrinks(t *testing.T) {
	// Fig 20: the F/V overhead ratio of fixed tiling over variable tiling
	// degrades (shrinks) at higher quality levels.
	m := testManifest(t)
	groups := GroupTiles(m, 0, DefaultGroupCount)
	lo := float64(m.ChunkTiledSize(0, Lowest)) / float64(GroupedChunkSize(m, 0, groups, Lowest))
	hi := float64(m.ChunkTiledSize(0, Highest)) / float64(GroupedChunkSize(m, 0, groups, Highest))
	if lo <= hi {
		t.Errorf("F/V should shrink with quality: lo %.3f hi %.3f", lo, hi)
	}
	if lo < 1.05 {
		t.Errorf("low-quality F/V overhead should be noticeable, got %.3f", lo)
	}
}

func TestGroupSizeSingleton(t *testing.T) {
	m := testManifest(t)
	id := geom.TileID(7)
	got := groupSize(m, 0, []geom.TileID{id}, Quality(2))
	want := m.TileSize(0, id, Quality(2))
	if got != want {
		t.Errorf("singleton group size %d != tile size %d", got, want)
	}
}

func TestManifestJSONRoundTrip(t *testing.T) {
	m := testManifest(t)
	m.MaskDisplacement[3] = 42.5
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeManifest(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.VideoID != m.VideoID || got.NumChunks != m.NumChunks {
		t.Fatal("round trip lost identity")
	}
	if got.MaskDisplacement[3] != 42.5 {
		t.Error("round trip lost mask displacement")
	}
	for c := 0; c < m.NumChunks; c += 3 {
		for tl := 0; tl < m.NumTiles(); tl += 17 {
			for q := Quality(0); q < NumQualities; q++ {
				if got.TileSize(c, geom.TileID(tl), q) != m.TileSize(c, geom.TileID(tl), q) {
					t.Fatal("round trip lost sizes")
				}
				if got.TilePSNR(c, geom.TileID(tl), q) != m.TilePSNR(c, geom.TileID(tl), q) {
					t.Fatal("round trip lost PSNR")
				}
			}
		}
	}
}

// overflowManifest declares a 2^32 × 2^32 grid: multiplied unchecked the
// tile count wraps to 0, every length check passes against empty arrays,
// and the client is handed a manifest with no tiles.
const overflowManifest = `{"video_id":"x","rows":4294967296,"cols":4294967296,"fps":30,"chunk_frames":30,"num_chunks":1,` +
	`"qps":[42,37,32,27,22],"sizes":[],"psnr":[],"pspnr":[],"black_psnr":[],"full360":[1,1,1,1,1]}`

func TestReadManifestRejectsCorrupt(t *testing.T) {
	var good bytes.Buffer
	if _, err := Generate(GenParams{ID: "tr", Rows: 2, Cols: 2, NumChunks: 2, Seed: 4}).WriteTo(&good); err != nil {
		t.Fatal(err)
	}
	// The same manifest outside the canonical form (a space after the
	// opening brace), which only encoding/json decodes.
	spaced := "{ " + good.String()[1:]
	cases := []string{
		``,
		`{`,
		`{"video_id":"x","rows":0,"cols":12,"fps":30,"chunk_frames":30,"num_chunks":1}`,
		`{"video_id":"x","rows":2,"cols":2,"fps":30,"chunk_frames":30,"num_chunks":1,"qps":[42,37,32,27,22],"sizes":[1],"psnr":[1],"pspnr":[1],"black_psnr":[1],"full360":[1]}`,
		`{"video_id":"x","rows":2,"cols":2,"fps":30,"chunk_frames":30,"num_chunks":1,"qps":[42]}`,
		overflowManifest,
		// A body is exactly one JSON value: bytes after the object were
		// once ignored by the stream decoder, on either path.
		good.String() + "garbage",
		good.String() + "]]]",
		good.String() + `{"video_id":"y"}`,
		spaced + "garbage",
		spaced + `{"video_id":"y"}`,
	}
	for i, c := range cases {
		if _, err := DecodeManifest([]byte(c)); err == nil {
			t.Errorf("case %d: corrupt manifest accepted", i)
		}
	}
	// Trailing whitespace is json.Unmarshal's rule, and stays accepted.
	for _, c := range []string{good.String() + " \n", spaced + "\t"} {
		if _, err := DecodeManifest([]byte(c)); err != nil {
			t.Errorf("manifest with trailing whitespace rejected: %v", err)
		}
	}
}

// TestReadManifestRejectsNegativeSizes: a size is a byte count the store
// slices a payload by, in both arrays; full360 used to go unchecked and a
// manifest with full360[i] = -5 panicked store.New.
func TestReadManifestRejectsNegativeSizes(t *testing.T) {
	m := Generate(GenParams{ID: "neg", Rows: 2, Cols: 2, NumChunks: 2, Seed: 4})
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"sizes", "full360"} {
		var j map[string]any
		if err := json.Unmarshal(buf.Bytes(), &j); err != nil {
			t.Fatal(err)
		}
		arr := j[field].([]any)
		arr[len(arr)-2] = -5
		raw, err := json.Marshal(j)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeManifest(raw); err == nil {
			t.Errorf("manifest with a negative entry in %q accepted", field)
		}
	}
}

// TestMedianHelper: MedianFull360Mbps's median is stats.Median, which
// averages the two middle values of an even count.
func TestMedianHelper(t *testing.T) {
	if got := stats.Median(nil); got != 0 {
		t.Errorf("median(nil) = %v", got)
	}
	if got := stats.Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := stats.Median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

func TestQualitySensitivityVaries(t *testing.T) {
	// Fig 18: some tiles are much more quality sensitive than others.
	m := testManifest(t)
	lo, hi := math.MaxFloat64, -math.MaxFloat64
	for tl := 0; tl < m.NumTiles(); tl++ {
		s := QualitySensitivity(m, 0, geom.TileID(tl))
		lo = math.Min(lo, s)
		hi = math.Max(hi, s)
	}
	if hi-lo < 3 {
		t.Errorf("quality sensitivity spread too small: lo %.2f hi %.2f", lo, hi)
	}
}

func TestGroupTilesProperty(t *testing.T) {
	m := Generate(GenParams{ID: "q", Seed: 3, NumChunks: 2})
	f := func(nRaw uint8) bool {
		n := int(nRaw)%160 + 1
		groups := GroupTiles(m, 1, n)
		count := 0
		for _, g := range groups {
			count += len(g)
		}
		return count == m.NumTiles()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Generate(GenParams{ID: "bench", TargetQP42Mbps: 3, Seed: int64(i), NumChunks: 10})
	}
}

func TestManifestChecksums(t *testing.T) {
	m := testManifest(t)
	if !m.HasChecksums() {
		t.Fatal("generated manifest carries no payload checksums")
	}
	// The synthetic payloads are zero-filled, so every checksum must equal
	// the CRC32-C of that many zero bytes — verified against a literal
	// zero buffer, not zeroCRC itself.
	id := geom.TileID(5)
	size := m.TileSize(2, id, Quality(3))
	want := crc32.Checksum(make([]byte, size), payloadCastagnoli)
	if got := m.TileChecksum(2, id, Quality(3)); got != want {
		t.Errorf("tile checksum %08x, want %08x", got, want)
	}
	fsize := m.Full360Size(1, Quality(0))
	fwant := crc32.Checksum(make([]byte, fsize), payloadCastagnoli)
	if got := m.Full360Checksum(1, Quality(0)); got != fwant {
		t.Errorf("full360 checksum %08x, want %08x", got, fwant)
	}

	// Checksums survive the JSON round trip.
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeManifest(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !got.HasChecksums() {
		t.Fatal("round trip dropped checksums")
	}
	if got.TileChecksum(2, id, Quality(3)) != want {
		t.Error("round trip corrupted tile checksum")
	}
}

func TestZeroCRCMatchesLiteral(t *testing.T) {
	for _, n := range []int64{0, 1, 100, int64(len(zeroBuf)), int64(len(zeroBuf)) + 1, 3*int64(len(zeroBuf)) + 17} {
		want := crc32.Checksum(make([]byte, n), payloadCastagnoli)
		if got := zeroCRC(n); got != want {
			t.Errorf("zeroCRC(%d) = %08x, want %08x", n, got, want)
		}
	}
}

func TestReadManifestRejectsPartialChecksums(t *testing.T) {
	m := Generate(GenParams{ID: "ck", Rows: 2, Cols: 2, NumChunks: 1, Seed: 9})
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var j map[string]any
	if err := json.Unmarshal(buf.Bytes(), &j); err != nil {
		t.Fatal(err)
	}
	delete(j, "full360_checksums") // tile checksums without full360 ones
	raw, err := json.Marshal(j)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeManifest(raw); err == nil {
		t.Error("manifest with partial checksum arrays accepted")
	}
	// Dropping both is the documented pre-v3 form and must stay readable.
	delete(j, "checksums")
	raw, err = json.Marshal(j)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := DecodeManifest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if legacy.HasChecksums() {
		t.Error("legacy manifest claims checksums")
	}
}

// FuzzReadManifest: the client reads the manifest off the wire. The parser
// must never panic and must agree with encoding/json — the same error
// nil-ness and a deeply equal manifest, whichever path decoded it; a
// manifest it accepts has exactly one size per (chunk, tile, quality) —
// counted by division, so a wrapped product cannot pass — and re-encodes to
// something it accepts again.
func FuzzReadManifest(f *testing.F) {
	var good bytes.Buffer
	_, _ = Generate(GenParams{ID: "fz", Rows: 2, Cols: 2, NumChunks: 2, Seed: 4}).WriteTo(&good)
	f.Add(good.Bytes())
	f.Add([]byte(overflowManifest))
	f.Add([]byte(`{"video_id":"x","rows":-1}`))
	legacy := newManifest("lg", 1, 2, 30, 30, 1)
	legacy.MaskDisplacement = nil
	raw, _ := legacy.AppendJSON(nil)
	f.Add(raw)
	f.Add(append(raw, " garbage"...))
	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := DecodeManifest(raw)
		want, werr := decodeJSON(raw)
		if (err == nil) != (werr == nil) || !reflect.DeepEqual(m, want) {
			t.Fatalf("DecodeManifest = (%v), encoding/json = (%v), or the manifests differ", err, werr)
		}
		if err != nil {
			return
		}
		n := len(m.sizes)
		for _, d := range []int{m.Rows, m.Cols, m.NumChunks, NumQualities} {
			if d <= 0 || n%d != 0 {
				t.Fatalf("accepted %dx%d x %d chunks with %d sizes", m.Rows, m.Cols, m.NumChunks, len(m.sizes))
			}
			n /= d
		}
		if n != 1 {
			t.Fatalf("accepted %dx%d x %d chunks with %d sizes", m.Rows, m.Cols, m.NumChunks, len(m.sizes))
		}
		var out bytes.Buffer
		if _, err := m.WriteTo(&out); err != nil {
			t.Fatalf("accepted manifest failed to encode: %v", err)
		}
		if _, err := DecodeManifest(out.Bytes()); err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
	})
}
