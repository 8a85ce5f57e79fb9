package bench

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"dragonfly/internal/geom"
	"dragonfly/internal/player"
	"dragonfly/internal/proto"
	"dragonfly/internal/server"
	"dragonfly/internal/video"
)

// fakeServer speaks the wire protocol but answers every request with
// whatever answer returns, so tests can duplicate, drop or corrupt a tile.
// Frames always carry a valid CRC trailer: only the driver's own verification
// can catch what answer did.
func fakeServer(t *testing.T, m *video.Manifest, answer func([]player.RequestItem) []proto.TileData) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	serve := func(c net.Conn) {
		defer wg.Done()
		defer c.Close()
		if msg, err := proto.ReadMessage(c); err != nil || msg.Type != proto.MsgHello {
			return
		}
		if err := proto.WriteManifest(c, m); err != nil {
			return
		}
		for {
			msg, err := proto.ReadMessage(c)
			if err != nil {
				return
			}
			switch msg.Type {
			case proto.MsgRequest:
				for _, td := range answer(msg.Request.Items) {
					if err := proto.WriteTileData(c, td); err != nil {
						return
					}
				}
			case proto.MsgBye:
				_ = proto.WriteBye(c) // the client may already be gone
				return
			}
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go serve(c)
		}
	}()
	t.Cleanup(func() {
		l.Close()
		wg.Wait()
	})
	return l.Addr().String()
}

// honest answers a request with every item once, payloads as the store
// serves them (zeros of the manifest's size).
func honest(m *video.Manifest) func([]player.RequestItem) []proto.TileData {
	return func(items []player.RequestItem) []proto.TileData {
		out := make([]proto.TileData, len(items))
		for i, it := range items {
			out[i] = proto.TileData{Item: it, Payload: make([]byte, it.Size(m))}
		}
		return out
	}
}

func bulkAgainst(t *testing.T, answer func(*video.Manifest) func([]player.RequestItem) []proto.TileData) (*recorder, error) {
	t.Helper()
	f := newFleetBulk(true)
	if err := f.gen(3, ""); err != nil {
		t.Fatal(err)
	}
	f.balAddr = fakeServer(t, f.ref, answer(f.ref))
	rec := &recorder{start: time.Now()}
	err := f.unit(0, rec)
	return rec, err
}

func TestBulkHonestServerPasses(t *testing.T) {
	rec, err := bulkAgainst(t, honest)
	if err != nil || rec.failed != 0 || len(rec.ops) != 2 {
		t.Fatalf("err %v, %d failed, %d ops (%v); want 2 clean ops", err, rec.failed, len(rec.ops), rec.fails)
	}
	if rec.tiles != 4*144 {
		t.Errorf("%d tiles, want %d", rec.tiles, 4*144)
	}
}

func TestBulkDuplicateTileFailsTheOp(t *testing.T) {
	rec, err := bulkAgainst(t, func(m *video.Manifest) func([]player.RequestItem) []proto.TileData {
		return func(items []player.RequestItem) []proto.TileData {
			tds := honest(m)(items)
			return append([]proto.TileData{tds[0]}, tds...)
		}
	})
	if err != nil {
		t.Fatalf("a duplicate must fail the op, not the session: %v", err)
	}
	if rec.failed != 2 || len(rec.ops) != 0 {
		t.Errorf("%d failed, %d ok; want both batches failed", rec.failed, len(rec.ops))
	}
	if len(rec.fails) == 0 || !strings.Contains(rec.fails[0], "delivered twice") {
		t.Errorf("failure reasons %v", rec.fails)
	}
}

func TestBulkBitFlippedTileFailsTheOp(t *testing.T) {
	rec, err := bulkAgainst(t, func(m *video.Manifest) func([]player.RequestItem) []proto.TileData {
		first := true
		return func(items []player.RequestItem) []proto.TileData {
			tds := honest(m)(items)
			if first {
				tds[7].Payload[0] ^= 0x10
				first = false
			}
			return tds
		}
	})
	if err != nil {
		t.Fatalf("a corrupt payload must fail the op, not the session: %v", err)
	}
	if rec.failed != 1 || len(rec.ops) != 1 {
		t.Errorf("%d failed, %d ok; want the first batch failed and the second clean", rec.failed, len(rec.ops))
	}
	if len(rec.fails) == 0 || !strings.Contains(rec.fails[0], "payload checksum") {
		t.Errorf("failure reasons %v", rec.fails)
	}
}

func TestBulkMissingTileFailsTheSession(t *testing.T) {
	old := opDeadline
	opDeadline = 300 * time.Millisecond
	defer func() { opDeadline = old }()
	rec, err := bulkAgainst(t, func(m *video.Manifest) func([]player.RequestItem) []proto.TileData {
		return func(items []player.RequestItem) []proto.TileData { return honest(m)(items)[1:] }
	})
	if err == nil {
		t.Fatalf("a tile that never comes must end the session with an error (%d ops recorded)", len(rec.ops))
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Errorf("error %v, want the op deadline", err)
	}
}

// A list may name items the server will never send: a primary tile already
// delivered at another quality, a masking tile whose chunk's full-360° masking
// is held. Neither the rounds nor the final drain may wait on them.
func TestRefineNeverWaitsOnDeduplicatedItems(t *testing.T) {
	w := newWireRefine(true)
	if err := w.gen(5, ""); err != nil {
		t.Fatal(err)
	}
	full := player.RequestItem{Stream: player.Masking, Chunk: 0, Full360: true}
	covered := player.RequestItem{Stream: player.Masking, Chunk: 0, Tile: 3}
	lowQ := player.RequestItem{Stream: player.Primary, Chunk: 0, Tile: geom.TileID(5), Quality: 1}
	highQ := lowQ
	highQ.Quality = 3
	for _, sc := range w.scripts {
		last := len(sc.reqs) - 1
		sc.reqs[last] = []player.RequestItem{sc.reqs[last][0], full, covered, lowQ, highQ, lowQ}
	}

	if err := w.build(map[string]time.Duration{}); err != nil {
		t.Fatal(err)
	}
	if err := w.start(); err != nil {
		t.Fatal(err)
	}
	defer w.stop()

	rec := &recorder{start: time.Now()}
	done := make(chan error, 1)
	go func() {
		for u := int64(0); u < 3; u++ {
			if err := w.unit(u, rec); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil || rec.failed != 0 {
			t.Fatalf("err %v, %d failed ops: %v", err, rec.failed, rec.fails)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the driver waited on an item the server deduplicated")
	}
	if want := w.rounds.Load(); int64(len(rec.ops)) != want {
		t.Errorf("%d rounds, want %d", len(rec.ops), want)
	}
}

func TestItemSetCovered(t *testing.T) {
	m := genManifest(video.Table3[0], 2)
	s := newItemSet(m)
	tile := player.RequestItem{Stream: player.Masking, Chunk: 1, Tile: 9}
	if s.covered(tile) {
		t.Error("nothing held yet")
	}
	s.put(player.RequestItem{Stream: player.Masking, Chunk: 1, Full360: true}, 1)
	if !s.covered(tile) {
		t.Error("a masking tile is covered by its chunk's full-360° masking")
	}
	if s.covered(player.RequestItem{Stream: player.Primary, Chunk: 1, Tile: 9}) {
		t.Error("masking never covers a primary tile")
	}
	if s.slot(player.RequestItem{Chunk: 2}) != nil || s.slot(player.RequestItem{Chunk: 0, Tile: 144}) != nil {
		t.Error("items outside the manifest must have no slot")
	}
	if !s.put(tile, 1) || s.put(tile, 2) || s.n != 2 || s.get(tile) != 2 {
		t.Errorf("first put is fresh, second restamps; n = %d, stamp %d", s.n, s.get(tile))
	}
}

// Full-size generation: every request the drivers will ever write fits the
// server's queue, so nothing is shed.
func TestRequestListsFitTheServerQueue(t *testing.T) {
	f := newFleetBulk(false)
	if err := f.gen(1, ""); err != nil {
		t.Fatal(err)
	}
	if len(f.batches) != 6 {
		t.Errorf("%d batches, want 6", len(f.batches))
	}
	for _, b := range f.batches {
		if len(b) != 1440 || len(b) > server.DefaultMaxQueue {
			t.Errorf("batch of %d items", len(b))
		}
	}
	w := newWireRefine(false)
	if err := w.gen(1, ""); err != nil {
		t.Fatal(err)
	}
	for i, sc := range w.scripts {
		listed := newItemSet(w.ref)
		for _, r := range sc.reqs {
			for _, it := range r[1:] {
				listed.put(it, 1)
			}
		}
		probes := newItemSet(w.ref)
		for k, r := range sc.reqs {
			if len(r) > server.DefaultMaxQueue {
				t.Errorf("script %d round %d lists %d items", i, k, len(r))
			}
			if listed.get(r[0]) != 0 || !probes.put(r[0], 1) {
				t.Errorf("script %d round %d: probe %+v is listed or was a probe before", i, k, r[0])
			}
		}
	}
	if st := w.listStats(); st["lists_per_session"].(float64) < 600 {
		t.Errorf("scripts %v, want about 602 lists a session", st)
	}
}

func shortRun(t *testing.T, workload string, traced bool, units int64) *Report {
	t.Helper()
	rep, err := Run(Spec{Workload: workload, Seed: 2, Units: units, Traced: traced, Short: true, TmpDir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !rep.Correct {
		t.Fatalf("%s: incorrect: %+v %v", workload, rep.Checks, rep.Failures)
	}
	return rep
}

// Two runs at one seed and one unit count give identical counts.
func TestRunsRepeatExactly(t *testing.T) {
	for _, wl := range Workloads {
		a, b := shortRun(t, wl, false, 4), shortRun(t, wl, false, 4)
		if a.OpsOK != b.OpsOK || a.OpsFailed != 0 || b.OpsFailed != 0 {
			t.Errorf("%s: ops %d vs %d", wl, a.OpsOK, b.OpsOK)
		}
		for _, key := range []string{"driver_tiles_received", "payload_bytes", "summary_sha256", "corpus_lines"} {
			if a.Info[key] != b.Info[key] {
				t.Errorf("%s: %s %v vs %v", wl, key, a.Info[key], b.Info[key])
			}
		}
		for _, d := range EndToEnd {
			if m, ok := a.Metrics[d.Name]; !ok || m.Value <= 0 || m.Unit != d.Unit {
				t.Errorf("%s: %s = %+v", wl, d.Name, m)
			}
		}
	}
}

// The traced run prints every per-layer metric, its self times sum to the
// total, and it writes the span file.
func TestTracedRunAttributesEveryLayer(t *testing.T) {
	touched := map[string]string{
		"pop_sweep": "core.decide_us_p50.full360", "fleet_bulk": "proto.read_frame_us_per_tile",
		"wire_refine": "server.handshake_ms_p50", "ingest_mixed": "ingest.push_ms_p50",
	}
	for _, wl := range Workloads {
		rep := shortRun(t, wl, true, 6)
		for _, d := range PerLayer {
			if _, ok := rep.Metrics[d.Name]; !ok {
				t.Errorf("%s: %s missing", wl, d.Name)
			}
		}
		if rep.Metrics[touched[wl]].Value <= 0 {
			t.Errorf("%s: %s = %v, want a measured value", wl, touched[wl], rep.Metrics[touched[wl]].Value)
		}
		for other, name := range touched {
			if other != wl && rep.Metrics[name].Value != 0 {
				t.Errorf("%s never enters that layer, yet %s = %v", wl, name, rep.Metrics[name].Value)
			}
		}
	}
}

func TestSpanFileIsWritten(t *testing.T) {
	dir := t.TempDir()
	rep, err := Run(Spec{Workload: "wire_refine", Seed: 1, Units: 6, Traced: true, TraceOut: dir + "/spans.jsonl", Short: true, TmpDir: dir})
	if err != nil || !rep.Correct {
		t.Fatalf("err %v, report %+v", err, rep)
	}
	raw, err := os.ReadFile(dir + "/spans.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	names := map[string]bool{}
	for _, ln := range lines {
		var s span
		if err := json.Unmarshal([]byte(ln), &s); err != nil {
			t.Fatalf("span line %q: %v", ln, err)
		}
		if s.End < s.Start || s.Busy < 0 || s.Calls < 1 {
			t.Fatalf("span %+v", s)
		}
		names[s.Name] = true
	}
	for _, want := range []string{"driver.session", "server.handshake", "driver.op", "proto.write_request", "proto.read_frame", "proto.payload_checksum", "driver.drain", "proto.bye"} {
		if !names[want] {
			t.Errorf("no %s span among %v", want, names)
		}
	}
}

// BENCHMARK.json must name exactly the workloads and metrics the code prints.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Paths) != 1 || strings.TrimSuffix(bf.Paths[0], "/") != "bench" {
		t.Errorf("paths %v", bf.Paths)
	}
	if len(bf.Workloads) != len(Workloads) {
		t.Fatalf("%d workloads, want %d", len(bf.Workloads), len(Workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != Workloads[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, Workloads[i])
		}
	}
	if len(bf.EndToEnd) != len(EndToEnd) || len(bf.PerLayer) != len(PerLayer) {
		t.Fatalf("%d end-to-end and %d per-layer metrics, want %d and %d", len(bf.EndToEnd), len(bf.PerLayer), len(EndToEnd), len(PerLayer))
	}
	for i, m := range bf.EndToEnd {
		d := EndToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end_to_end[%d] = %+v, want %+v", i, m, d)
		}
		if m.Bound < 0.02 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0.02, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range bf.PerLayer {
		d := PerLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, want %+v", i, m, d)
		}
	}
}

// stop must wait for everything start launched.
func TestStartStopLeavesNothingRunning(t *testing.T) {
	f := newFleetBulk(true)
	if err := f.gen(1, ""); err != nil {
		t.Fatal(err)
	}
	if err := f.build(map[string]time.Duration{}); err != nil {
		t.Fatal(err)
	}
	if err := f.start(); err != nil {
		t.Fatal(err)
	}
	if err := f.unit(0, &recorder{start: time.Now()}); err != nil {
		t.Fatal(err)
	}
	if err := f.stop(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	var d net.Dialer
	if c, err := d.DialContext(ctx, "tcp", f.balAddr); err == nil {
		c.Close()
		t.Error("the balancer still accepts connections after stop")
	}
}
