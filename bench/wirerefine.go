package bench

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"dragonfly/internal/core"
	"dragonfly/internal/geom"
	"dragonfly/internal/player"
	"dragonfly/internal/popsim"
	"dragonfly/internal/proto"
	"dragonfly/internal/server"
	"dragonfly/internal/store"
	"dragonfly/internal/trace"
	"dragonfly/internal/video"
)

// wireRefine: op = one refinement round, direct to one server. The fetch
// lists of one seeded Dragonfly session are replayed (not decided) as fast as
// the server answers; each request leads with a probe tile never requested
// before, and the op ends when the probe is held — how fast a changed decision
// takes effect. Per-message work dominates (request encode/parse,
// install/supersede, shedding, dedup skips, small-frame sends) and bytes are
// few; session start (a multi-megabyte JSON manifest encoded and parsed per
// handshake) dominates CPU. Bypasses the balancer and internal/core.
type wireRefine struct {
	chunks int
	entry  video.DatasetEntry
	ref    *video.Manifest

	// scripts are the recorded sessions; session u replays scripts[u % len].
	// Several members, not one, so that a seed's draw of list lengths and
	// viewport paths averages out instead of setting the run's numbers.
	scripts []script

	m      *video.Manifest // last build
	st     *store.Store
	srv    *server.Server
	addr   string
	cancel context.CancelFunc
	done   chan error

	overrun, skips, rounds atomic.Int64
}

// script is one recorded session as the driver replays it.
type script struct {
	reqs   [][]player.RequestItem // per round: the probe, then the recorded list
	frames [][]byte               // the same requests as encoded wire frames
}

func newWireRefine(short bool) *wireRefine {
	w := &wireRefine{chunks: 60, entry: video.Table3[3]} // v8
	w.scripts = make([]script, 4)
	if short {
		w.chunks, w.scripts = 6, make([]script, 2)
	}
	return w
}

// recordingScheme copies every fetch list a scheme decides.
type recordingScheme struct {
	player.Scheme
	lists [][]player.RequestItem
}

func (r *recordingScheme) Decide(ctx *player.Context) []player.RequestItem {
	items := r.Scheme.Decide(ctx)
	list := append([]player.RequestItem(nil), items...)
	// The script keeps which tiles are listed, in what order and when they
	// are dropped again, but asks for every primary tile at the lowest
	// quality. At the decided qualities a session moves ~120 MB and the
	// bytes, which differ by 40 % from seed to seed, swamp the per-message
	// work this workload exists to measure.
	for i := range list {
		if list[i].Stream == player.Primary {
			list[i].Quality = 0
		}
	}
	r.lists = append(r.lists, list)
	return items
}

func (w *wireRefine) gen(seed int64, _ string) error {
	w.ref = genManifest(w.entry, w.chunks)
	// Seeded medium-motion members of the Belgian 4G class supply the head
	// and bandwidth traces of the recorded sessions.
	model := popsim.Model{
		Motion:   []popsim.MotionWeight{{Class: trace.MotionMedium, Weight: 1}},
		Nets:     []popsim.NetWeight{{Class: popsim.BelgianClass(), Weight: 1}},
		Duration: time.Duration(w.chunks) * time.Second,
		Seed:     seed,
	}
	for i := range w.scripts {
		mem := model.Sample(i)
		rs := &recordingScheme{Scheme: core.NewDefault()}
		if _, err := player.Run(player.Config{Manifest: w.ref, Head: mem.Head, Bandwidth: mem.Bandwidth, Scheme: rs}); err != nil {
			return fmt.Errorf("record session: %w", err)
		}
		sc, err := w.newScript(rs.lists)
		if err != nil {
			return fmt.Errorf("script %d: %w", i, err)
		}
		w.scripts[i] = sc
	}
	return nil
}

// newScript turns recorded fetch lists into requests, each led by a probe: a
// primary tile no list of the session ever names, taken from the end of the
// video backward, at the lowest quality. The server has never sent it on the
// connection, so a probe is never deduplicated and never waited on in vain.
func (w *wireRefine) newScript(lists [][]player.RequestItem) (script, error) {
	if len(lists) == 0 {
		return script{}, fmt.Errorf("recorded session decided nothing")
	}
	listed := newItemSet(w.ref)
	for _, l := range lists {
		for _, it := range l {
			listed.put(it, 1)
		}
	}
	var probes []player.RequestItem
	for c := w.ref.NumChunks - 1; c >= 0 && len(probes) < len(lists); c-- {
		for tl := w.ref.NumTiles() - 1; tl >= 0 && len(probes) < len(lists); tl-- {
			it := player.RequestItem{Stream: player.Primary, Chunk: c, Tile: geom.TileID(tl)}
			if listed.get(it) == 0 {
				probes = append(probes, it)
			}
		}
	}
	if len(probes) < len(lists) {
		return script{}, fmt.Errorf("only %d unlisted tiles for %d rounds", len(probes), len(lists))
	}
	var sc script
	for k, l := range lists {
		req := append([]player.RequestItem{probes[k]}, l...)
		if len(req) > server.DefaultMaxQueue {
			return script{}, fmt.Errorf("round %d lists %d items, over the server's queue cap %d", k, len(req), server.DefaultMaxQueue)
		}
		var frame bytes.Buffer
		if err := proto.WriteRequest(&frame, proto.Request{Generation: uint32(k + 1), Items: req}); err != nil {
			return script{}, err
		}
		sc.reqs = append(sc.reqs, req)
		sc.frames = append(sc.frames, frame.Bytes())
	}
	return sc, nil
}

// listStats summarises the recorded scripts for the report.
func (w *wireRefine) listStats() map[string]any {
	var lens []float64
	lists, maxLen, distinctItems := 0, 0, 0
	var bytes int64
	for _, sc := range w.scripts {
		distinct := newItemSet(w.ref)
		for _, r := range sc.reqs {
			lens = append(lens, float64(len(r)-1))
			if len(r)-1 > maxLen {
				maxLen = len(r) - 1
			}
			for _, it := range r[1:] {
				if distinct.put(it, 1) {
					bytes += it.Size(w.ref)
				}
			}
		}
		lists += len(sc.reqs)
		distinctItems += distinct.n
	}
	n := float64(len(w.scripts))
	return map[string]any{
		"scripts": len(w.scripts), "lists_per_session": float64(lists) / n, "items_p50": median(lens), "items_max": maxLen,
		"distinct_items_per_session": float64(distinctItems) / n, "distinct_item_mb_per_session": float64(bytes) / (1 << 20) / n,
	}
}

// refineSetupCopies: see bulkSetupCopies; v8's smaller payloads frame faster.
const refineSetupCopies = 3

// build: see fleetBulk.build for why store.New stands in for server.New.
func (w *wireRefine) build(sub map[string]time.Duration) error {
	for c := 0; c < refineSetupCopies; c++ {
		t0 := time.Now()
		w.m = genManifest(w.entry, w.chunks)
		sub["video.generate"] += time.Since(t0)
		t0 = time.Now()
		w.st = store.New(w.m)
		sub["store.build"] += time.Since(t0)
	}
	return nil
}

func (w *wireRefine) start() error {
	ctx, cancel := context.WithCancel(context.Background())
	w.srv = server.New(w.m)
	addr, done, err := serveTCP(ctx, w.srv.Serve)
	if err != nil {
		cancel()
		return err
	}
	w.addr, w.done, w.cancel = addr, done, cancel
	return nil
}

func (w *wireRefine) stop() error {
	if w.cancel == nil {
		return nil
	}
	w.cancel()
	w.cancel = nil
	if err := <-w.done; err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	return nil
}

func (w *wireRefine) unit(u int64, rec *recorder) error {
	reqs := w.scripts[u%int64(len(w.scripts))].reqs
	w.rounds.Add(int64(len(reqs)))
	wc, err := dialSession(w.addr, w.ref.VideoID, w.ref, rec, u)
	if err != nil {
		return err
	}
	tr := rec.tr
	listed := newItemSet(w.ref) // stamp = the last round that listed the item
	var overrun, skips int64
	verify := func(it player.RequestItem, err error, stamp int32, ok *bool) error {
		if errors.Is(err, errVerify) {
			rec.note("%v", err)
			*ok = false
			return nil
		}
		if err != nil {
			return err
		}
		switch listed.get(it) {
		case 0:
			rec.note("tile %+v was never requested", it)
			*ok = false
		case stamp:
		default:
			overrun++ // sent from a list a later request had already superseded
		}
		return nil
	}
	for k, req := range reqs {
		t0 := time.Now()
		op := tr.begin("driver.op", wc.root, u)
		stamp := int32(k + 1)
		for _, it := range req {
			if wc.held.covered(it) {
				skips++
			}
			listed.put(it, stamp)
		}
		if err := wc.request(uint32(stamp), req, op); err != nil {
			wc.abort()
			return err
		}
		g := wc.groups(op)
		probe, ok := req[0], true
		for wc.held.get(probe) == 0 {
			it, err := wc.readTile(g)
			if err := verify(it, err, stamp, &ok); err != nil {
				wc.abort()
				return err
			}
		}
		tr.end(op)
		rec.op(t0, ok)
	}

	// Drain: the last list is never superseded, so everything in it that is
	// not already covered must arrive, exactly once.
	dr := tr.begin("driver.drain", wc.root, u)
	g := wc.groups(dr)
	last, stamp, ok := reqs[len(reqs)-1], int32(len(reqs)), true
	for {
		pending := 0
		for _, it := range last {
			if !wc.held.covered(it) {
				pending++
			}
		}
		if pending == 0 {
			break
		}
		it, err := wc.readTile(g)
		if err := verify(it, err, stamp, &ok); err != nil {
			wc.abort()
			return err
		}
	}
	tr.end(dr)
	if !ok {
		rec.fail("session %d: drain delivered a bad tile", u)
	}
	w.overrun.Add(overrun)
	w.skips.Add(skips)
	return wc.bye()
}

func (w *wireRefine) checks(tot totals, info map[string]any) []Check {
	info["script"] = w.listStats()
	c := w.srv.Counters()
	sent := c.PrimarySent + c.MaskTileSent + c.MaskFullSent
	rounds := w.rounds.Load()
	return []Check{
		{Name: "server_sent_equals_received", OK: sent == tot.tiles && c.BytesSent == tot.bytes,
			Detail: fmt.Sprintf("sent %d tiles / %d bytes, received %d / %d", sent, c.BytesSent, tot.tiles, tot.bytes)},
		{Name: "nothing_shed", OK: c.ShedItems == 0, Detail: fmt.Sprintf("%d items shed", c.ShedItems)},
		{Name: "round_count_exact", OK: tot.ops+tot.failed == rounds,
			Detail: fmt.Sprintf("%d rounds over %d sessions, want %d", tot.ops+tot.failed, tot.units, rounds)},
		{Name: "every_probe_delivered", OK: tot.tiles >= rounds, Detail: fmt.Sprintf("%d tiles for %d probes", tot.tiles, rounds)},
	}
}

func (w *wireRefine) layers(lc *layerCtx) error {
	un := lc.untraced
	rounds := float64(len(un.ops))
	lc.set("server.handshake_ms_p50", median(un.handshakesMS()))
	if s := lc.lt.busy["driver.session"]; s > 0 {
		lc.set("server.handshake_share", float64(lc.lt.busy["server.handshake"])/float64(s))
	}
	writes := busyEach(lc.traced.tracers, "proto.write_request")
	lc.set("proto.write_request_us_p50", 1000*percentile(writes, 50))
	lc.info["write_request_samples"] = len(writes)

	// Manifest encode and decode, the bulk of a handshake.
	var enc, dec []float64
	var frame bytes.Buffer
	for r := 0; r < 5; r++ {
		frame.Reset()
		t0 := time.Now()
		if err := proto.WriteManifest(&frame, w.m); err != nil {
			return err
		}
		enc = append(enc, toMS(time.Since(t0)))
		t0 = time.Now()
		if _, err := proto.ReadMessage(bytes.NewReader(frame.Bytes())); err != nil {
			return err
		}
		dec = append(dec, toMS(time.Since(t0)))
	}
	decodeMS := median(dec)
	lc.set("video.manifest_encode_ms", median(enc))
	lc.set("video.manifest_decode_ms", decodeMS)
	lc.info["manifest_frame_bytes"] = frame.Len()

	// Request encode and parse, replayed from the captured frames.
	sc := w.scripts[0]
	sizes := make([]float64, len(sc.frames))
	const reps = 20
	var encD, parseD time.Duration
	for r := 0; r < reps; r++ {
		for k, fr := range sc.frames {
			sizes[k] = float64(len(fr))
			t0 := time.Now()
			if err := proto.WriteRequest(io.Discard, proto.Request{Generation: uint32(k + 1), Items: sc.reqs[k]}); err != nil {
				return err
			}
			encD += time.Since(t0)
			t0 = time.Now()
			if _, err := proto.ReadMessage(bytes.NewReader(fr)); err != nil {
				return err
			}
			parseD += time.Since(t0)
		}
	}
	n := float64(reps * len(sc.frames))
	encodeUS := toUS(encD) / n
	lc.set("proto.parse_request_us", toUS(parseD)/n)
	lc.set("proto.request_bytes_p50", median(sizes))

	// Client-side cost of one received tile: frame read plus checksum,
	// replayed over the probes (the typical tile of this workload).
	st := store.Shared(w.m)
	var wire bytes.Buffer
	for _, req := range sc.reqs {
		bufs, _, ok := st.Frame(req[0])
		if !ok {
			return fmt.Errorf("store cannot frame probe %+v", req[0])
		}
		for _, b := range bufs {
			wire.Write(b)
		}
	}
	var buf []byte
	var sink uint32
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		rd := bytes.NewReader(wire.Bytes())
		for range sc.reqs {
			msg, b, err := proto.ReadMessageBuf(rd, buf)
			if err != nil {
				return fmt.Errorf("replay read: %w", err)
			}
			buf = b
			sink ^= proto.PayloadChecksum(msg.TileData.Payload)
		}
	}
	tileUS := toUS(time.Since(t0)) / n
	lc.info["replay_sink"] = sink

	tilesPerRound := float64(un.tiles) / rounds
	lc.set("server.tiles_per_round", tilesPerRound)
	allRounds := float64(lc.opsSoFar())
	lc.set("server.dedup_skips_per_round", float64(w.skips.Load())/allRounds)
	lc.set("server.overrun_tiles_per_round", float64(w.overrun.Load())/allRounds)
	driverUS := encodeUS + tilesPerRound*tileUS + 1000*decodeMS/float64(len(sc.reqs))
	lc.set("server.derived_cpu_us_per_round", toUS(un.cpu)/rounds-driverUS)
	lc.info["driver_replayed_us_per_round"] = driverUS
	return nil
}
