package player

import (
	"encoding/binary"
	"slices"
	"testing"

	"dragonfly/internal/geom"
	"dragonfly/internal/video"
)

// TestSendQueueShed holds an install's shed to the session contract: which
// entries it keeps and in what order, how many items and payload bytes it
// sheds, and the queued-byte total it leaves.
func TestSendQueueShed(t *testing.T) {
	m := video.Generate(video.GenParams{ID: "srv", Rows: 4, Cols: 4, NumChunks: 3, Seed: 9})
	prim := func(tile geom.TileID, q video.Quality) RequestItem {
		return RequestItem{Stream: Primary, Chunk: 0, Tile: tile, Quality: q}
	}
	full := func(chunk int, q video.Quality) RequestItem {
		return RequestItem{Stream: Masking, Chunk: chunk, Full360: true, Quality: q}
	}
	big, small := prim(0, video.NumQualities-1), prim(1, 0)
	fullTop := full(0, video.NumQualities-1)
	malformed := RequestItem{Stream: Primary, Chunk: 999, Tile: 0, Quality: 1}
	// The byte-budget rows need a primary that outweighs another, and the
	// clamp rows a masking entry that alone overruns a 1-byte budget.
	if big.Size(m) <= small.Size(m) || fullTop.Size(m) <= 1 {
		t.Fatalf("manifest sizes not ordered: big=%d small=%d masking=%d", big.Size(m), small.Size(m), fullTop.Size(m))
	}
	mixed := []RequestItem{prim(0, 1), full(0, 0), prim(1, 1), full(1, 0), prim(2, 1), prim(3, 1)}
	for _, c := range []struct {
		name     string
		items    []RequestItem
		maxItems int
		maxBytes int64
		kept     []int // indices into items, in queue order
	}{
		// Both masking entries survive a count cap of 3; the one primary
		// slot left goes to the highest-utility (earliest) primary.
		{"KeepsMasking", mixed, 3, 0, []int{0, 1, 3}},
		{"KeepsMaskingUnderCap", mixed, 10, 0, []int{0, 1, 2, 3, 4, 5}},
		{"Empty", nil, 3, 1024, nil},
		// The oversized higher-utility primary is shed while the smaller
		// one still rides along.
		{"ByteBudget", []RequestItem{big, small}, 0, small.Size(m), []int{1}},
		{"ByteBudgetFits", []RequestItem{big, small}, 0, big.Size(m) + small.Size(m), []int{0, 1}},
		// One byte fits no primary, but masking survives regardless.
		{"BudgetSmallerThanOneTile", []RequestItem{prim(0, 2), full(0, 0), prim(1, 2)}, 0, 1, []int{1}},
		{"ShedEverything", []RequestItem{prim(0, 1), prim(1, 1), prim(2, 1)}, 0, 1, nil},
		// Hostile wire items cost zero bytes and always fit; Pop drops them.
		{"MalformedItemsShedAsZeroBytes", []RequestItem{malformed, {Stream: Primary, Chunk: 0, Tile: 999, Quality: 1}}, 0, 1, []int{0, 1}},
		// Masking alone overruns the byte budget; the primaries' budget
		// clamps at zero, so a zero-size item still fits and is not
		// counted as a shed tile, while a real primary cannot squeeze by.
		{"MaskingOverBudgetClampsAtZero", []RequestItem{fullTop, malformed}, 10, 1, []int{0, 1}},
		{"MaskingOverBudgetShedsPrimary", []RequestItem{fullTop, prim(0, 1)}, 10, 1, []int{0}},
	} {
		t.Run(c.name, func(t *testing.T) {
			q := NewSendQueue(m)
			shed, shedBytes := q.Install(1, c.items, c.maxItems, c.maxBytes)
			var want []RequestItem
			var wantBytes, wantShedBytes int64
			for i, it := range c.items {
				if slices.Contains(c.kept, i) {
					want = append(want, it)
					wantBytes += q.size(it)
				} else {
					wantShedBytes += q.size(it)
				}
			}
			if !slices.Equal(q.items, want) {
				t.Errorf("kept %+v, want %+v", q.items, want)
			}
			if shed != len(c.items)-len(c.kept) || shedBytes != wantShedBytes {
				t.Errorf("shed %d items / %d bytes, want %d / %d", shed, shedBytes, len(c.items)-len(c.kept), wantShedBytes)
			}
			if q.Queued() != wantBytes {
				t.Errorf("queued %d bytes, want %d", q.Queued(), wantBytes)
			}
		})
	}
}

// TestSendQueueUnbudgetedAllocationFree pins what Run's modelled server
// pays per decision: an install with no budgets queues the list it was
// given, not a copy, and it and the pops down to empty allocate nothing.
func TestSendQueueUnbudgetedAllocationFree(t *testing.T) {
	m := video.Generate(video.GenParams{ID: "q", Rows: 12, Cols: 12, NumChunks: 4, Seed: 1})
	var items []RequestItem
	for c := range m.NumChunks {
		items = append(items, RequestItem{Stream: Masking, Chunk: c, Full360: true})
		for tile := range m.NumTiles() {
			items = append(items, RequestItem{Stream: Primary, Chunk: c, Tile: geom.TileID(tile), Quality: 2})
		}
	}
	q := NewSendQueue(m)
	var gen uint32
	drain := func() {
		gen++
		q.Install(gen, items, 0, 0)
		for {
			if _, ok := q.Pop(); !ok {
				break
			}
		}
	}
	q.Install(0, items, 0, 0)
	if &q.items[0] != &items[0] || len(q.items) != len(items) {
		t.Fatal("an unbudgeted install copied its list")
	}
	if n := testing.AllocsPerRun(20, drain); n != 0 {
		t.Errorf("unbudgeted install and drain: %.1f allocs, want 0", n)
	}
	if q.Queued() != 0 {
		t.Errorf("drained queue holds %d bytes", q.Queued())
	}
}

// queueKey names what the redundancy rule sends once: the stream, chunk
// and tile, with quality ignored and a full-360° chunk as one entry.
type queueKey struct {
	stream      StreamKind
	full        bool
	chunk, tile int
}

func keyOf(it RequestItem) queueKey {
	if it.Stream == Masking && it.Full360 {
		return queueKey{Masking, true, it.Chunk, 0}
	}
	return queueKey{it.Stream, false, it.Chunk, int(it.Tile)}
}

// FuzzSendQueue runs any sequence of installs (arbitrary item bytes,
// generations and budgets), pops and resume merges through a queue. The
// queued-byte total must never go negative and must equal the in-range
// sizes left, and reach 0 once drained; an install must keep every masking
// entry in order, shed exactly what it reports, and fit what it keeps of
// the primaries to the budgets masking left; no (stream, chunk, tile) may
// pop twice, nor pop after a merge said the client holds it.
func FuzzSendQueue(f *testing.F) {
	f.Add([]byte{0, 1, 6, 3, 0, 40, 0x01, 0, 0, 1, 0x00, 1, 2, 2, 0x02, 2, 0, 0, 0x03, 3, 1, 4, 0x00, 0, 5, 9, 0x01, 0, 3, 1, 1, 3})
	f.Add([]byte{0, 0, 4, 0, 0, 0, 0x80, 0, 0, 0, 0x01, 7, 0, 0, 0x00, 0, 6, 0, 0x00, 0, 255, 1, 2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1, 1, 1, 3})
	f.Add([]byte{0, 0x7f, 2, 1, 1, 0, 0x00, 0, 0, 0, 0x00, 0, 1, 0, 0, 0x80, 2, 0, 0x01, 1, 1, 1, 3})
	m := video.Generate(video.GenParams{ID: "fz", Rows: 2, Cols: 3, NumChunks: 3, Seed: 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		q := NewSendQueue(m)
		var gen uint32
		popped := map[queueKey]bool{}
		next := func(n int) []byte {
			if len(data) < n {
				data = append(data, make([]byte, n-len(data))...)
			}
			b := data[:n]
			data = data[n:]
			return b
		}
		for len(data) > 0 {
			switch op := next(1)[0] % 4; op {
			case 0:
				h := next(5)
				g := gen + uint32(int8(h[0]))
				items := make([]RequestItem, h[1]%16)
				for i := range items {
					b := next(4)
					// Chunk, tile and quality run one past their ranges at both ends.
					items[i] = RequestItem{Stream: StreamKind(b[0] & 1), Full360: b[0]&2 != 0,
						Chunk:   int(b[1]%byte(m.NumChunks+2)) - 1,
						Tile:    geom.TileID(int(b[2]%byte(m.NumTiles()+2)) - 1),
						Quality: video.Quality(int(b[3]%(video.NumQualities+2)) - 1)}
				}
				maxItems, maxBytes := int(int8(h[2])), int64(int16(binary.BigEndian.Uint16(h[3:])))*500
				shed, shedBytes := q.Install(g, items, maxItems, maxBytes)
				if int32(g-gen) < 0 {
					if shed != 0 || shedBytes != 0 {
						t.Fatalf("a stale install shed %d items", shed)
					}
					break
				}
				gen = g
				var masks, keptMasks, kept []RequestItem
				var maskBytes, keptBytes, droppedBytes int64
				for _, it := range items {
					droppedBytes += q.size(it)
					if it.Stream == Masking {
						masks, maskBytes = append(masks, it), maskBytes+q.size(it)
					}
				}
				for _, it := range q.items {
					droppedBytes -= q.size(it)
					if it.Stream == Masking {
						keptMasks = append(keptMasks, it)
					} else {
						kept, keptBytes = append(kept, it), keptBytes+q.size(it)
					}
				}
				if !slices.Equal(keptMasks, masks) {
					t.Fatalf("install kept masking %+v of %+v", keptMasks, masks)
				}
				if shed != len(items)-len(q.items) || shedBytes != droppedBytes {
					t.Fatalf("install reports %d items / %d bytes shed; %d / %d left the list", shed, shedBytes, len(items)-len(q.items), droppedBytes)
				}
				if maxItems > 0 && len(kept) > max(maxItems-len(masks), 0) || maxBytes > 0 && keptBytes > max(maxBytes-maskBytes, 0) {
					t.Fatalf("kept %d primaries / %d bytes over budgets %d / %d with %d masking / %d bytes", len(kept), keptBytes, maxItems, maxBytes, len(masks), maskBytes)
				}
			case 1, 2:
				for range 1 + 30*int(op-1) {
					it, ok := q.Pop()
					if !ok {
						if q.Queued() != 0 {
							t.Fatalf("drained queue holds %d bytes", q.Queued())
						}
						break
					}
					if !it.In(m) || popped[keyOf(it)] {
						t.Fatalf("popped %+v, malformed or already sent", it)
					}
					popped[keyOf(it)] = true
				}
			case 3:
				h := newHeldSummary(m)
				for _, b := range [][]byte{h.Primary, h.MaskTile, h.MaskFull} {
					copy(b, next(len(b)))
				}
				q.Merge(h)
				held := func(k queueKey, bit bool) { popped[k] = popped[k] || bit }
				for c := range m.NumChunks {
					held(queueKey{Masking, true, c, 0}, bitGet(h.MaskFull, c))
					for tile := range m.NumTiles() {
						held(queueKey{Primary, false, c, tile}, bitGet(h.Primary, c*m.NumTiles()+tile))
						held(queueKey{Masking, false, c, tile}, bitGet(h.MaskTile, c*m.NumTiles()+tile))
					}
				}
			}
			var left int64
			for _, it := range q.items {
				left += q.size(it)
			}
			if q.Queued() < 0 || q.Queued() != left {
				t.Fatalf("queued %d bytes, %d in range left", q.Queued(), left)
			}
		}
	})
}
