package bench

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync/atomic"
	"time"

	"dragonfly/internal/balancer"
	"dragonfly/internal/geom"
	"dragonfly/internal/player"
	"dragonfly/internal/proto"
	"dragonfly/internal/server"
	"dragonfly/internal/store"
	"dragonfly/internal/video"
)

// bulkSetupCopies is how many times one set-up repetition builds the fixture
// set, so the repetition measures over a quarter of a second of work.
const bulkSetupCopies = 2

// fleetBulk: op = one batch of 1 440 top-quality primary tiles requested
// through the balancer and read back until every one is held and verified.
// Per-byte work dominates — balancer splice copy, server vectored send from
// the store, kernel loopback, client frame CRC and payload checksum — and
// internal/core is bypassed. It is the only workload through the balancer.
type fleetBulk struct {
	chunks, batchChunks int
	entry               video.DatasetEntry
	ref                 *video.Manifest        // the driver's own copy, for verification
	batches             [][]player.RequestItem // one shuffled fetch list per batch

	m   *video.Manifest // last build
	st  *store.Store
	bal *balancer.Balancer

	srvs     []*server.Server
	srvAddrs []string
	balAddr  string
	cancel   context.CancelFunc
	done     []chan error
	direct   atomic.Bool // layer comparison: dial a backend, not the balancer
}

func newFleetBulk(short bool) *fleetBulk {
	f := &fleetBulk{chunks: 60, batchChunks: 10, entry: video.Table3[len(video.Table3)-1]}
	if short {
		f.chunks, f.batchChunks = 4, 2
	}
	return f
}

func (f *fleetBulk) gen(seed int64, _ string) error {
	f.ref = genManifest(f.entry, f.chunks)
	rng := rand.New(rand.NewSource(seed))
	tiles := f.ref.NumTiles()
	top := video.Quality(video.NumQualities - 1)
	for c0 := 0; c0 < f.chunks; c0 += f.batchChunks {
		items := make([]player.RequestItem, 0, f.batchChunks*tiles)
		for c := c0; c < c0+f.batchChunks; c++ {
			for tl := 0; tl < tiles; tl++ {
				items = append(items, player.RequestItem{Stream: player.Primary, Chunk: c, Tile: geom.TileID(tl), Quality: top})
			}
		}
		rng.Shuffle(len(items), func(a, b int) { items[a], items[b] = items[b], items[a] })
		if len(items) > server.DefaultMaxQueue {
			return fmt.Errorf("batch of %d items exceeds the server's queue cap %d", len(items), server.DefaultMaxQueue)
		}
		f.batches = append(f.batches, items)
	}
	return nil
}

// build times video.Generate, store.New and balancer.New. server.New is left
// to start: it memoises the store per manifest for the life of the process
// (store.Shared), so calling it in every repetition would pin every
// repetition's store and dilute live_heap_mb; store.New is the constructor it
// runs underneath.
func (f *fleetBulk) build(sub map[string]time.Duration) error {
	for c := 0; c < bulkSetupCopies; c++ {
		t0 := time.Now()
		f.m = genManifest(f.entry, f.chunks)
		sub["video.generate"] += time.Since(t0)
		t0 = time.Now()
		f.st = store.New(f.m)
		sub["store.build"] += time.Since(t0)
		var err error
		f.bal, err = balancer.New(balancer.Config{Backends: []balancer.BackendConfig{{Addr: "127.0.0.1:1"}, {Addr: "127.0.0.1:2"}}})
		if err != nil {
			return err
		}
	}
	return nil
}

// serveTCP runs serve on a fresh loopback listener and returns its address
// and a channel that yields serve's result.
func serveTCP(ctx context.Context, serve func(context.Context, net.Listener) error) (string, chan error, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	done := make(chan error, 1)
	go func() { done <- serve(ctx, l) }()
	return l.Addr().String(), done, nil
}

func (f *fleetBulk) start() error {
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	var backends []balancer.BackendConfig
	for i := 0; i < 2; i++ {
		srv := server.New(f.m) // both share store.Shared(f.m)
		addr, done, err := serveTCP(ctx, srv.Serve)
		if err != nil {
			return err
		}
		f.srvs = append(f.srvs, srv)
		f.srvAddrs = append(f.srvAddrs, addr)
		f.done = append(f.done, done)
		backends = append(backends, balancer.BackendConfig{Addr: addr})
	}
	bal, err := balancer.New(balancer.Config{Backends: backends})
	if err != nil {
		return err
	}
	f.bal = bal
	addr, done, err := serveTCP(ctx, bal.Serve)
	if err != nil {
		return err
	}
	f.balAddr = addr
	f.done = append(f.done, done)
	return nil
}

func (f *fleetBulk) stop() error {
	if f.cancel == nil {
		return nil
	}
	f.cancel()
	var first error
	for _, d := range f.done {
		if err := <-d; err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, net.ErrClosed) && first == nil {
			first = err
		}
	}
	f.cancel = nil
	return first
}

func (f *fleetBulk) unit(u int64, rec *recorder) error {
	addr := f.balAddr
	if f.direct.Load() {
		addr = f.srvAddrs[u%int64(len(f.srvAddrs))]
	}
	wc, err := dialSession(addr, f.ref.VideoID, f.ref, rec, u)
	if err != nil {
		return err
	}
	tr := rec.tr
	for b, items := range f.batches {
		t0 := time.Now()
		op := tr.begin("driver.op", wc.root, u)
		if err := wc.request(uint32(b+1), items, op); err != nil {
			wc.abort()
			return err
		}
		g := wc.groups(op)
		want := wc.held.n + len(items)
		ok := true
		for wc.held.n < want {
			it, err := wc.readTile(g)
			if errors.Is(err, errVerify) {
				rec.note("%v", err)
				ok = false
				if !errors.Is(err, errDuplicate) {
					want-- // a rejected tile is not held and will not come again
				}
				continue
			}
			if err != nil {
				wc.abort()
				return err
			}
			if it.Chunk/f.batchChunks != b {
				rec.note("tile %+v does not belong to batch %d", it, b)
				ok = false
			}
		}
		tr.end(op)
		rec.op(t0, ok)
	}
	return wc.bye()
}

func (f *fleetBulk) checks(tot totals, info map[string]any) []Check {
	var sent, shed, bytesSent int64
	for _, s := range f.srvs {
		c := s.Counters()
		sent += c.PrimarySent + c.MaskTileSent + c.MaskFullSent
		shed += c.ShedItems
		bytesSent += c.BytesSent
	}
	info["server_tiles_sent"] = sent
	info["driver_tiles_received"] = tot.tiles
	info["payload_bytes"] = tot.bytes
	perSession := int64(f.chunks * f.ref.NumTiles())
	return []Check{
		{Name: "server_sent_equals_received", OK: sent == tot.tiles && bytesSent == tot.bytes,
			Detail: fmt.Sprintf("sent %d tiles / %d bytes, received %d / %d", sent, bytesSent, tot.tiles, tot.bytes)},
		{Name: "nothing_shed", OK: shed == 0, Detail: fmt.Sprintf("%d items shed", shed)},
		{Name: "tile_count_exact", OK: tot.tiles == tot.units*perSession,
			Detail: fmt.Sprintf("%d tiles over %d sessions, want %d each", tot.tiles, tot.units, perSession)},
	}
}

func (f *fleetBulk) layers(lc *layerCtx) error {
	via := lc.untraced
	// The same batches and handshakes, direct to a backend.
	f.direct.Store(true)
	direct := runPhase(f, limit{dur: via.wall}, false, lc.nextUnit)
	f.direct.Store(false)
	if direct.failed > 0 || len(direct.ops) == 0 {
		return fmt.Errorf("direct phase: %d ops, %d failed: %v", len(direct.ops), direct.failed, direct.fails)
	}
	lc.extra(&direct)

	cpuPerTile := func(p *phase) float64 { return toUS(p.cpu) / float64(p.tiles) }
	added := cpuPerTile(via) - cpuPerTile(&direct)
	lc.set("server.direct_cpu_us_per_tile", cpuPerTile(&direct))
	lc.set("balancer.added_cpu_us_per_tile", added)
	lc.set("balancer.route_added_ms", median(via.handshakesMS())-median(direct.handshakesMS()))
	lc.set("wire.payload_mb_per_s", float64(via.bytes)/(1<<20)/via.wall.Seconds())

	// Pure-CPU replays of one captured batch, from memory.
	items := f.batches[0]
	sharedStore := store.Shared(f.m)
	var wire bytes.Buffer
	for _, it := range items {
		bufs, _, ok := sharedStore.Frame(it)
		if !ok {
			return fmt.Errorf("store cannot frame %+v", it)
		}
		for _, b := range bufs {
			wire.Write(b)
		}
	}
	const reps = 20
	n := float64(reps * len(items))

	scratch := make(net.Buffers, 0, 3*len(items))
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		scratch = scratch[:0]
		for _, it := range items {
			scratch, _, _ = sharedStore.AppendFrame(scratch, it)
		}
	}
	appendNS := float64(time.Since(t0).Nanoseconds()) / n
	lc.set("store.append_frame_ns_per_tile", appendNS)

	var buf []byte
	maxPayload := 0
	t0 = time.Now()
	for r := 0; r < reps; r++ {
		rd := bytes.NewReader(wire.Bytes())
		for range items {
			msg, b, err := proto.ReadMessageBuf(rd, buf)
			if err != nil {
				return fmt.Errorf("replay read: %w", err)
			}
			buf = b
			maxPayload = max(maxPayload, len(msg.TileData.Payload))
		}
	}
	readUS := toUS(time.Since(t0)) / n
	lc.set("proto.read_frame_us_per_tile", readUS)

	// Checksum payloads of the same sizes; the store's payloads are zeros.
	slab := make([]byte, maxPayload)
	var sink uint32
	t0 = time.Now()
	for r := 0; r < reps; r++ {
		for _, it := range items {
			sink ^= proto.PayloadChecksum(slab[:it.Size(f.m)])
		}
	}
	sumUS := toUS(time.Since(t0)) / n
	lc.set("proto.payload_checksum_us_per_tile", sumUS)
	lc.info["replay_sink"] = sink

	lc.set("wire.unattributed_us_per_tile", cpuPerTile(via)-readUS-sumUS-appendNS/1000-added)

	t0 = time.Now()
	store.New(f.m)
	lc.set("store.build_ms", toMS(time.Since(t0)))

	var sent, shed int64
	for _, s := range f.srvs {
		c := s.Counters()
		sent += c.PrimarySent + c.MaskTileSent + c.MaskFullSent
		shed += c.ShedItems
	}
	lc.set("server.shed_items", float64(shed))
	lc.set("server.sent_minus_received", float64(sent-lc.tilesSoFar()))
	return nil
}
