package server

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"dragonfly/internal/geom"
	"dragonfly/internal/player"
	"dragonfly/internal/proto"
	"dragonfly/internal/video"
)

// The tests in this file step a session directly: no socket, no sleep.

// refModel is the session contract (§3.3) restated without the session's
// code: a request at least as new supersedes the queue; masking is never
// shed and is paid for first, primaries keep their order while the count
// and byte budgets last; an item is sent at most once per (stream, chunk,
// tile) whatever its quality, and no masking follows a chunk's full-360°.
type refModel struct {
	m     *video.Manifest
	gen   uint32
	queue []player.RequestItem
	sent  map[player.RequestItem]bool // by key()
}

func (r *refModel) size(it player.RequestItem) int64 {
	if !it.In(r.m) {
		return 0
	}
	return it.Size(r.m)
}

func key(it player.RequestItem) player.RequestItem {
	it.Quality = 0
	if it.Full360 {
		it.Tile = 0
	}
	return it
}

func (r *refModel) request(gen uint32, items []player.RequestItem, maxItems int, maxBytes int64) (shed int, shedBytes int64) {
	if int32(gen-r.gen) < 0 {
		return 0, 0
	}
	r.gen, r.queue = gen, nil
	unlimited := maxBytes <= 0
	for _, it := range items {
		if it.Stream == player.Masking {
			maxItems--
			maxBytes -= r.size(it)
		}
	}
	maxBytes = max(maxBytes, 0)
	for _, it := range items {
		size := r.size(it)
		switch {
		case it.Stream == player.Masking:
		case maxItems > 0 && (unlimited || size <= maxBytes):
			maxItems--
			maxBytes -= size
		default:
			shed, shedBytes = shed+1, shedBytes+size
			continue
		}
		r.queue = append(r.queue, it)
	}
	return shed, shedBytes
}

func (r *refModel) batch() (out []player.RequestItem) {
	var wire int64
	for len(r.queue) > 0 && len(out) < maxBatchFrames && wire < maxBatchBytes {
		it := r.queue[0]
		r.queue = r.queue[1:]
		full := player.RequestItem{Stream: player.Masking, Chunk: it.Chunk, Full360: true}
		if !it.In(r.m) || r.sent[key(it)] || it.Stream == player.Masking && r.sent[full] {
			continue
		}
		r.sent[key(it)] = true
		out = append(out, it)
		wire += it.Size(r.m) + proto.TileFrameOverhead
	}
	return out
}

// preload marks what a resuming client holds as sent, counting what is new.
func (r *refModel) preload(h player.HeldSummary) (restored int64) {
	mark := func(held bool, k player.RequestItem) {
		if held && !r.sent[k] {
			r.sent[k], restored = true, restored+1
		}
	}
	bit := func(b []byte, i int) bool { return b[i>>3]&(1<<uint(i&7)) != 0 }
	for c := 0; c < r.m.NumChunks; c++ {
		mark(bit(h.MaskFull, c), player.RequestItem{Stream: player.Masking, Chunk: c, Full360: true})
		for tl := 0; tl < r.m.NumTiles(); tl++ {
			mark(bit(h.Primary, c*h.NumTiles+tl), player.RequestItem{Stream: player.Primary, Chunk: c, Tile: geom.TileID(tl)})
			mark(bit(h.MaskTile, c*h.NumTiles+tl), player.RequestItem{Stream: player.Masking, Chunk: c, Tile: geom.TileID(tl)})
		}
	}
	return restored
}

// randomItem draws mostly well-formed items; one in ten is malformed in
// chunk, tile or quality, the way a hostile or buggy client's would be.
func randomItem(rng *rand.Rand, m *video.Manifest) player.RequestItem {
	it := player.RequestItem{
		Chunk:   rng.Intn(m.NumChunks),
		Tile:    geom.TileID(rng.Intn(m.NumTiles())),
		Quality: video.Quality(rng.Intn(video.NumQualities)),
	}
	switch p := rng.Intn(20); {
	case p < 5:
		it.Stream = player.Masking
	case p == 5:
		it.Stream, it.Full360 = player.Masking, true
	case p == 6:
		it.Chunk = m.NumChunks + rng.Intn(3)
	case p == 7:
		it.Tile = geom.TileID(-1 - rng.Intn(3))
	case p == 8:
		it.Quality = video.NumQualities + video.Quality(rng.Intn(3))
	}
	return it
}

// emptyHeld is the resume summary of a client that holds nothing, built
// the way proto decodes one.
func emptyHeld(m *video.Manifest) player.HeldSummary {
	perTile := (m.NumChunks*m.NumTiles() + 7) / 8
	return player.HeldSummary{NumChunks: m.NumChunks, NumTiles: m.NumTiles(),
		Primary: make([]byte, perTile), MaskTile: make([]byte, perTile), MaskFull: make([]byte, (m.NumChunks+7)/8)}
}

// set sets bit i of a summary's bitmap.
func set(b []byte, i int) { b[i>>3] |= 1 << uint(i&7) }

func randomHeld(rng *rand.Rand, m *video.Manifest) player.HeldSummary {
	h := emptyHeld(m)
	for i := rng.Intn(6); i > 0; i-- {
		if it := randomItem(rng, m); it.In(m) {
			switch ct := it.Chunk*h.NumTiles + int(it.Tile); {
			case it.Stream == player.Masking && it.Full360:
				set(h.MaskFull, it.Chunk)
			case it.Stream == player.Masking:
				set(h.MaskTile, ct)
			default:
				set(h.Primary, ct)
			}
		}
	}
	return h
}

// TestSessionMatchesModel drives seeded random sequences of requests
// (newer, equal, stale and wrapped generations; malformed items; budgets
// from "nothing fits" to unlimited), resume preloads and batch pops through
// a session and the model, and demands they agree step for step: the shed
// counts of every request, the frames of every batch, the bytes left queued.
func TestSessionMatchesModel(t *testing.T) {
	// A session can send each (stream, chunk, tile) once, so the grid is
	// large enough, and the sequences short enough, that batches keep
	// filling to both caps before the session runs dry.
	m := video.Generate(video.GenParams{ID: "srv", Rows: 6, Cols: 8, NumChunks: 4, Seed: 9})
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New(m)
		ss := newSession(s, m, "")
		ref := &refModel{m: m, sent: map[player.RequestItem]bool{}}
		gen := ^uint32(0) - uint32(rng.Intn(40)) // the sequence crosses the uint32 wrap
		for step := 0; step < 100; step++ {
			switch p := rng.Intn(10); {
			case p < 5:
				gen += uint32(rng.Intn(4)) - 1 // -1 (stale), 0 (replay), +1, +2
				items := make([]player.RequestItem, rng.Intn(120))
				for i := range items {
					items[i] = randomItem(rng, m)
				}
				s.MaxQueueBytes = []int64{0, 1, 40_000, 2_000_000}[rng.Intn(4)]
				before := s.Counters()
				ss.request(proto.Request{Generation: gen, Items: items})
				shed, shedBytes := ref.request(gen, items, DefaultMaxQueue, s.MaxQueueBytes)
				after := s.Counters()
				if got, gotBytes := after.ShedItems-before.ShedItems, after.ShedBytes-before.ShedBytes; got != int64(shed) || gotBytes != shedBytes {
					t.Fatalf("seed %d step %d: request gen %d shed %d items / %d bytes, model %d / %d", seed, step, gen, got, gotBytes, shed, shedBytes)
				}
				gen = ref.gen
			case p == 5:
				held := randomHeld(rng, m)
				want := ref.preload(held)
				if got := ss.preload(held); got != want {
					t.Fatalf("seed %d step %d: preload restored %d, model %d", seed, step, got, want)
				}
			default:
				wire, done := ss.nextBatch()
				want := ref.batch()
				if done || len(ss.batch) != len(want) || len(want) > 0 && !reflect.DeepEqual(ss.batch, want) {
					t.Fatalf("seed %d step %d: batch %+v (done=%v), model %+v", seed, step, ss.batch, done, want)
				}
				if (len(wire) == 0) != (len(want) == 0) {
					t.Fatalf("seed %d step %d: %d wire buffers for %d frames", seed, step, len(wire), len(want))
				}
			}
			var queued int64
			for _, it := range ref.queue {
				queued += ref.size(it)
			}
			if ss.queuedBytes != queued || s.queuedBytes.Load() != queued {
				t.Fatalf("seed %d step %d: queued bytes session %d / server %d, model %d", seed, step, ss.queuedBytes, s.queuedBytes.Load(), queued)
			}
		}
	}
}

// primaries is a fetch list of n distinct primary tiles of chunk 0.
func primaries(n int) []player.RequestItem {
	items := make([]player.RequestItem, n)
	for i := range items {
		items[i] = player.RequestItem{Stream: player.Primary, Chunk: 0, Tile: geom.TileID(i), Quality: 1}
	}
	return items
}

// TestWroteCreditsOnlyWholeFrames: a write that lands mid-frame credits
// the frames before the tear and nothing of the torn one.
func TestWroteCreditsOnlyWholeFrames(t *testing.T) {
	m := testManifest()
	s := New(m)
	ss := newSession(s, m, "")
	items := append(primaries(3), player.RequestItem{Stream: player.Masking, Chunk: 1, Full360: true})
	ss.install(proto.Request{Generation: 1, Items: items}, 0, 0)
	if _, done := ss.nextBatch(); done || len(ss.batch) != len(items) {
		t.Fatalf("batch = %+v done=%v, want all %d items", ss.batch, done, len(items))
	}
	torn := errors.New("torn")
	if err := ss.wrote(ss.ends[1]+7, time.Second, torn); !errors.Is(err, torn) {
		t.Fatalf("wrote = %v, want the write's own error", err)
	}
	tally := s.Counters()
	if tally.PrimarySent != 2 || tally.MaskFullSent != 0 || tally.BytesSent != items[0].Size(m)+items[1].Size(m) {
		t.Fatalf("after a tear inside frame 3: %+v, want 2 primaries and their bytes only", tally)
	}
	if tally.WriteStallKills != 0 {
		t.Fatal("a failed write was charged to the stall budget")
	}
	// The whole batch delivered credits every frame, by kind.
	if err := ss.wrote(ss.ends[3], 0, nil); err != nil {
		t.Fatal(err)
	}
	if tally := s.Counters(); tally.PrimarySent != 5 || tally.MaskFullSent != 1 {
		t.Fatalf("after a full write: %+v", tally)
	}
}

// TestStallBudgetKillsExactlyOnExhaustion: the session dies with
// errWriteStall at the first write (tile batch or ping) that takes the
// accumulated excess over its allowance past the budget, and not before —
// for a budget under 10 ms (the 1 ms allowance floor) and one over it.
func TestStallBudgetKillsExactlyOnExhaustion(t *testing.T) {
	m := testManifest()
	for _, budget := range []time.Duration{5 * time.Millisecond, 80 * time.Millisecond} {
		allowance := max(budget/10, time.Millisecond)
		rng := rand.New(rand.NewSource(int64(budget)))
		s := New(m)
		s.WriteStallBudget = budget
		ss := newSession(s, m, "")
		var excess time.Duration
		for i := 0; ; i++ {
			elapsed := time.Duration(rng.Int63n(int64(3 * allowance)))
			excess += max(elapsed-allowance, 0)
			var err error
			if i%3 == 2 {
				err = ss.pinged(elapsed)
			} else {
				err = ss.wrote(0, elapsed, nil)
			}
			if excess <= budget {
				if err != nil {
					t.Fatalf("budget %v: killed at excess %v: %v", budget, excess, err)
				}
				continue
			}
			if !errors.Is(err, errWriteStall) {
				t.Fatalf("budget %v: excess %v went unpunished: %v", budget, excess, err)
			}
			break
		}
		if got := s.Counters().WriteStallKills; got != 1 {
			t.Fatalf("budget %v: WriteStallKills = %d, want 1", budget, got)
		}
	}
}

// TestQueuedBytesZeroOnEveryExit: however a session ends — drained, torn
// down with a full queue, on a failed write, on a stall kill — release
// hands its byte commitment back, and a request racing the teardown
// cannot re-commit any.
func TestQueuedBytesZeroOnEveryExit(t *testing.T) {
	m := testManifest()
	exits := map[string]func(ss *session){
		"drained": func(ss *session) {
			for wire, _ := ss.nextBatch(); len(wire) > 0; wire, _ = ss.nextBatch() {
				_ = ss.wrote(ss.ends[len(ss.ends)-1], 0, nil)
			}
		},
		"torn down with a full queue": func(ss *session) {},
		"write failed mid-batch": func(ss *session) {
			ss.nextBatch()
			_ = ss.wrote(ss.ends[0]+1, 0, errors.New("reset"))
		},
		"stall kill": func(ss *session) {
			ss.nextBatch()
			if err := ss.wrote(ss.ends[len(ss.ends)-1], time.Hour, nil); !errors.Is(err, errWriteStall) {
				t.Errorf("an hour in one write: %v", err)
			}
		},
	}
	for name, exit := range exits {
		s := New(m)
		s.WriteStallBudget = time.Second
		ss := newSession(s, m, "")
		ss.request(proto.Request{Generation: 1, Items: primaries(12)})
		if s.queuedBytes.Load() == 0 {
			t.Fatalf("%s: nothing queued", name)
		}
		exit(ss)
		ss.release()
		ss.request(proto.Request{Generation: 2, Items: primaries(12)})
		if _, done := ss.nextBatch(); !done {
			t.Errorf("%s: released session not done", name)
		}
		if s.queuedBytes.Load() != 0 || ss.queuedBytes != 0 {
			t.Errorf("%s: queued bytes server %d / session %d after release", name, s.queuedBytes.Load(), ss.queuedBytes)
		}
	}
}

// fixedScale is a QoE source that scales every cohort's budgets by itself.
type fixedScale float64

func (f fixedScale) CohortScale(string) float64 { return float64(f) }

// TestQoERelaxNeverSheds: a scale above 1 relaxes the budgets however large
// it is, and an infinite one is neutral. Neither may overflow the scaled
// budgets into their 1-item and 1-byte floors, which shed every primary.
func TestQoERelaxNeverSheds(t *testing.T) {
	m := testManifest()
	for _, scale := range []float64{math.Inf(1), 1e300, 3e15} {
		s := New(m)
		s.MaxQueueBytes, s.QoE = 1<<30, fixedScale(scale)
		ss := newSession(s, m, "c")
		ss.request(proto.Request{Generation: 1, Items: primaries(12)})
		if shed := s.Counters().ShedItems; shed != 0 {
			t.Errorf("scale %g shed %d of 12 primaries", scale, shed)
		}
		if got := s.Counters().QoEScaledInstalls; (got == 0) != math.IsInf(scale, 1) {
			t.Errorf("scale %g counted %d scaled installs, want 1 unless infinite", scale, got)
		}
	}
}

// TestNonPositiveMaxQueueIsTheDefault: the item bound is DefaultMaxQueue
// at every QoE scale, so 12 primaries fit whether the cohort's scale sheds
// (0.5), is neutral (1) or relaxes (1.5).
func TestNonPositiveMaxQueueIsTheDefault(t *testing.T) {
	m := testManifest()
	for _, scale := range []float64{1, 0.5, 1.5} {
		s := New(m)
		s.QoE = fixedScale(scale)
		ss := newSession(s, m, "c")
		ss.request(proto.Request{Generation: 1, Items: primaries(12)})
		if shed := s.Counters().ShedItems; shed != 0 {
			t.Errorf("scale %g shed %d of 12 primaries", scale, shed)
		}
	}
}

// TestCountersAreTheRegistry drives one server through every event its
// send accounting counts — a probe, a busy reject, a resume, a QoE-scaled
// install that sheds, sends of each kind, a ping, a corrupt frame and a
// write-stall kill — and demands each Counters field equal its srv_*
// counter in the registry snapshot the admin endpoint serves.
func TestCountersAreTheRegistry(t *testing.T) {
	m := testManifest()
	s := New(m)
	s.WriteStallBudget, s.QoE = time.Millisecond, fixedScale(0.5)
	if _, pong, _, err := s.open(&proto.Message{Type: proto.MsgPing}); err != nil || pong == nil {
		t.Fatalf("probe: pong %v, err %v", pong, err)
	}
	s.Drain()
	if busy := s.admit(); busy == "" {
		t.Fatal("a draining server admitted a session")
	}
	held := emptyHeld(m)
	set(held.Primary, 2*m.NumTiles()+3)
	ss, _, _, err := s.open(&proto.Message{Type: proto.MsgResume,
		Resume: &proto.Resume{Version: proto.ProtoVersion, VideoID: m.VideoID, Cohort: "c", Held: held}})
	if err != nil {
		t.Fatal(err)
	}
	items := append([]player.RequestItem{
		{Stream: player.Masking, Chunk: 0, Full360: true},
		{Stream: player.Masking, Chunk: 1, Tile: 2},
	}, primaries(5)...)
	// At scale 0.5 the byte budget holds the two masking items and the
	// first two primaries, and sheds the other three.
	var keep int64
	for _, it := range items[:4] {
		keep += it.Size(m)
	}
	s.MaxQueueBytes = 2 * keep
	ss.request(proto.Request{Generation: 1, Items: items})
	ss.nextBatch()
	if err := ss.wrote(ss.ends[len(ss.ends)-1], 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := ss.pinged(0); err != nil {
		t.Fatal(err)
	}
	ss.corruptFrame()
	if err := ss.pinged(time.Second); !errors.Is(err, errWriteStall) {
		t.Fatalf("a 1 s ping under a 1 ms budget: %v", err)
	}
	ss.release()

	snap := s.Obs.Snapshot().Counters
	got := s.Counters()
	for name, v := range map[string]int64{
		"srv_primary_sent":        got.PrimarySent,
		"srv_mask_tile_sent":      got.MaskTileSent,
		"srv_mask_full_sent":      got.MaskFullSent,
		"srv_bytes_sent":          got.BytesSent,
		"srv_pings":               got.Pings,
		"srv_resumes":             got.Resumes,
		"srv_resumed_items":       got.ResumedItems,
		"srv_shed_items":          got.ShedItems,
		"srv_shed_bytes":          got.ShedBytes,
		"srv_corrupt_frames":      got.CorruptFrames,
		"srv_rejected_conns":      got.RejectedConns,
		"srv_probes":              got.Probes,
		"srv_qoe_scaled_installs": got.QoEScaledInstalls,
		"srv_write_stall_kills":   got.WriteStallKills,
	} {
		if v == 0 || snap[name] != v {
			t.Errorf("%s: Counters reads %d, registry %d; want equal and non-zero", name, v, snap[name])
		}
	}
}
