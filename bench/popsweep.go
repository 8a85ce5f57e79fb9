package bench

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sync"
	"time"

	"dragonfly/internal/geom"
	"dragonfly/internal/player"
	"dragonfly/internal/popsim"
	"dragonfly/internal/quality"
	"dragonfly/internal/sim"
	"dragonfly/internal/stats"
	"dragonfly/internal/video"
)

// popSchemes mixes the cheap full-360° scheduler, the ~10× dearer
// scheduled-tiled one and two per-chunk baselines, so internal/core is used
// three ways and a gain for one masking variant that costs another shows.
var popSchemes = []string{"dragonfly", "dragonfly-tiled-sched", "pano", "flare"}

// popMembers is the population size. Unit u is shard u of popMembers shards,
// that is exactly member u under every scheme; no run gets near the end.
const popMembers = 1 << 16

// popSetupCopies is how many times one set-up repetition builds the fixture
// set, so the repetition measures at least a quarter of a second of work.
const popSetupCopies = 3

// decide-timing classes of the traced run.
const (
	classFull360 = iota
	classTiledSched
	classBaseline
	numClasses
)

func decideClass(key string) int {
	switch key {
	case "dragonfly":
		return classFull360
	case "dragonfly-tiled-sched":
		return classTiledSched
	}
	return classBaseline
}

// popSweep: op = one simulated session. The decision path (core, geom,
// quality, predict, player, baseline, popsim, stats) does all the work;
// proto, store, server, balancer and ingest do none.
type popSweep struct {
	chunks int
	reg    map[string]sim.SchemeFactory
	model  popsim.Model

	videos []*video.Manifest // last build, in service
	tables []any             // last build's un-memoised tables (kept for live heap)

	mu     sync.Mutex
	rollup *popsim.Rollup
	early  [2]*popsim.Rollup // rollups of units 0 and 1, for the shard-merge check

	decide [Workers][numClasses][]time.Duration // traced run only
}

func newPopSweep(short bool) *popSweep {
	p := &popSweep{chunks: 20}
	if short {
		p.chunks = 3
	}
	return p
}

func (p *popSweep) gen(seed int64, _ string) error {
	p.reg = sim.Registry()
	p.model = popsim.DefaultModel(seed)
	p.rollup = popsim.NewRollup(popsim.Geometry{})
	return nil
}

// popVideos are the two Table 3 manifests of the sweep: v1 (lowest rate) and
// v27 (highest rate).
func popVideos() []video.DatasetEntry {
	return []video.DatasetEntry{video.Table3[0], video.Table3[len(video.Table3)-1]}
}

func genManifest(e video.DatasetEntry, chunks int) *video.Manifest {
	return video.Generate(video.GenParams{
		ID: e.ID, NumChunks: chunks,
		TargetQP42Mbps: e.QP42Mbps, TargetQP22Mbps: e.QP22Mbps,
		MotionLevel: e.MotionLevel, Seed: e.Seed,
	})
}

func (p *popSweep) build(sub map[string]time.Duration) error {
	for c := 0; c < popSetupCopies; c++ {
		p.videos, p.tables = p.videos[:0], p.tables[:0]
		for _, e := range popVideos() {
			t0 := time.Now()
			m := genManifest(e, p.chunks)
			sub["video.generate"] += time.Since(t0)

			t0 = time.Now()
			tab := geom.NewOverlapTable(m.Grid(), geom.TableParams{})
			for _, r := range geom.DefaultRoIs.RadiiDeg {
				tab.Plane(r)
			}
			tab.Plane(geom.DefaultViewport.RadiusDeg)
			sub["geom.table_build"] += time.Since(t0)

			t0 = time.Now()
			st := quality.NewScoreTable(m, quality.PSNR)
			sub["quality.table_build"] += time.Since(t0)

			p.videos = append(p.videos, m)
			p.tables = append(p.tables, tab, st)
		}
	}
	return nil
}

func (p *popSweep) start() error { return nil }
func (p *popSweep) stop() error  { return nil }

// timedScheme times every Decide of a wrapped scheme (traced run only).
type timedScheme struct {
	player.Scheme
	tr    *tracer
	group int
	out   *[]time.Duration
}

func (s *timedScheme) Decide(ctx *player.Context) []player.RequestItem {
	t0 := time.Now()
	items := s.Scheme.Decide(ctx)
	*s.out = append(*s.out, s.tr.call(s.group, t0))
	return items
}

// sweepOne runs members [0, sessions) striding by shards from shard, timing
// each session from outside: popsim calls a scheme's factory exactly once, at
// the start of a session, and with Workers 1 sessions run back to back, so
// one op spans from one factory call to the next (or to Run's return) — play
// plus fold. Sampling the member precedes the first factory call.
func (p *popSweep) sweepOne(shard int, rec *recorder) (*popsim.Rollup, error) {
	tr := rec.tr
	root := tr.begin("popsim.run", -1, int64(shard))
	var (
		opStart time.Time
		sess    = -1
		open    bool
	)
	closeOp := func() {
		if open {
			rec.op(opStart, true)
			tr.end(sess)
		}
	}
	extra := make(map[string]sim.SchemeFactory, len(popSchemes))
	for _, key := range popSchemes {
		inner, class := p.reg[key], decideClass(key)
		name := "core.decide"
		if class == classBaseline {
			name = "baseline.decide"
		}
		extra[key] = func() player.Scheme {
			closeOp()
			opStart, open = time.Now(), true
			sess = tr.begin("player.session", root, int64(shard))
			if tr == nil {
				return inner()
			}
			return &timedScheme{
				Scheme: inner(), tr: tr, group: tr.group(name, sess, int64(shard)),
				out: &p.decide[rec.worker][class],
			}
		}
	}
	roll, _, err := popsim.Run(popsim.Sweep{
		Videos: p.videos, Schemes: popSchemes, Extra: extra,
		Sessions: popMembers, Model: p.model, Workers: 1,
		ShardIndex: shard, ShardCount: popMembers,
	})
	if err != nil {
		return nil, err
	}
	closeOp()
	tr.end(root)
	return roll, nil
}

func (p *popSweep) unit(u int64, rec *recorder) error {
	if u >= popMembers {
		return fmt.Errorf("population of %d exhausted", popMembers)
	}
	roll, err := p.sweepOne(int(u), rec)
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if u < int64(len(p.early)) {
		p.early[u] = roll
	}
	return p.rollup.Merge(roll)
}

func (p *popSweep) checks(tot totals, info map[string]any) []Check {
	var out []Check
	// Reported so two runs can be compared, never pinned: the member count
	// is time-bound.
	if js, err := p.rollup.SummaryJSON(); err == nil {
		info["summary_sha256"] = fmt.Sprintf("%x", sha256.Sum256(js))
	}
	want := tot.units * int64(len(popSchemes))
	out = append(out, Check{
		Name: "session_count_exact", OK: p.rollup.Sessions() == want && tot.ops+tot.failed == want,
		Detail: fmt.Sprintf("rollup %d, ops %d, want %d", p.rollup.Sessions(), tot.ops+tot.failed, want),
	})

	// Dragonfly never stalls (§3): both core variants must fold zero
	// rebuffering in every cohort.
	sum := p.rollup.Summary()
	stallOK, detail := true, ""
	for _, key := range []string{"dragonfly", "dragonfly-tiled-sched"} {
		for cohort, cs := range sum.Schemes[key] {
			if cs.StallMS.Mean != 0 {
				stallOK = false
				detail = fmt.Sprintf("%s/%s mean stall %.3f ms", key, cohort, cs.StallMS.Mean)
			}
		}
	}
	out = append(out, Check{Name: "dragonfly_rebuffering_zero", OK: stallOK, Detail: detail})

	// Shard-and-merge equals one process: members 0 and 1 were swept as two
	// single-member shards by whichever workers took them; one two-member
	// sweep on two workers must give a byte-identical summary.
	if p.early[0] != nil && p.early[1] != nil {
		merged := popsim.NewRollup(popsim.Geometry{})
		err := merged.Merge(p.early[0])
		if err == nil {
			err = merged.Merge(p.early[1])
		}
		var a, b []byte
		if err == nil {
			a, err = merged.SummaryJSON()
		}
		if err == nil {
			var whole *popsim.Rollup
			whole, _, err = popsim.Run(popsim.Sweep{
				Videos: p.videos, Schemes: popSchemes, Sessions: 2, Model: p.model, Workers: 2,
			})
			if err == nil {
				b, err = whole.SummaryJSON()
			}
		}
		c := Check{Name: "shard_merge_matches_single_sweep", OK: err == nil && bytes.Equal(a, b)}
		if err != nil {
			c.Detail = err.Error()
		}
		out = append(out, c)
	}
	return out
}

func (p *popSweep) layers(lc *layerCtx) error {
	// Decide timings from the traced phase.
	merged := [numClasses][]float64{}
	var calls int64
	for w := range p.decide {
		for c := range p.decide[w] {
			for _, d := range p.decide[w][c] {
				merged[c] = append(merged[c], toUS(d))
			}
			calls += int64(len(p.decide[w][c]))
		}
	}
	lc.set("core.decide_us_p50.full360", median(merged[classFull360]))
	lc.set("core.decide_us_p50.tiled_sched", median(merged[classTiledSched]))
	lc.set("baseline.decide_us_p50", median(merged[classBaseline]))
	lc.info["decide_samples"] = calls
	if n := len(lc.traced.ops); n > 0 {
		lc.set("core.decide_calls_per_op", float64(calls)/float64(n))
		lc.set("player.engine_ms_per_op", toMS(lc.lt.self["player.session"])/float64(n))
	}
	if s := lc.lt.busy["player.session"]; s > 0 {
		lc.set("core.decide_share", float64(lc.lt.busy["core.decide"]+lc.lt.busy["baseline.decide"])/float64(s))
	}

	// Determinism on a 16-member slice: one worker against two.
	var sums [2][]byte
	for i, workers := range []int{1, 2} {
		roll, _, err := popsim.Run(popsim.Sweep{
			Videos: p.videos, Schemes: popSchemes, Sessions: 16, Model: p.model, Workers: workers,
		})
		if err != nil {
			return err
		}
		if sums[i], err = roll.SummaryJSON(); err != nil {
			return err
		}
	}
	if !bytes.Equal(sums[0], sums[1]) {
		return fmt.Errorf("16-member summary differs between 1 and 2 workers")
	}
	lc.info["determinism_16_members"] = "byte-identical for 1 and 2 workers"

	t0 := time.Now()
	if _, err := p.rollup.SummaryJSON(); err != nil {
		return err
	}
	lc.set("popsim.summary_ms", toMS(time.Since(t0)))

	// Pure-CPU replays of captured inputs.
	const replayMembers = 64
	t0 = time.Now()
	var mem popsim.Member
	for i := 0; i < replayMembers; i++ {
		mem = p.model.Sample(i)
	}
	lc.set("popsim.sample_us_per_member", toUS(time.Since(t0))/replayMembers)

	m := p.videos[1]
	met, err := player.Run(player.Config{
		Manifest: m, Head: mem.Head, Bandwidth: mem.Bandwidth, Scheme: p.reg["dragonfly"](),
	})
	if err != nil {
		return err
	}
	const foldReps = 50
	scratch := popsim.NewRollup(popsim.Geometry{})
	t0 = time.Now()
	for i := 0; i < foldReps; i++ {
		scratch.Fold("dragonfly", mem.Cohort, met)
	}
	lc.set("popsim.fold_us_per_op", toUS(time.Since(t0))/foldReps)

	geo := popsim.DefaultGeometry()
	sk := stats.NewSketch(geo.QualityLoDB, geo.QualityHiDB, geo.QualityBins)
	const addReps = 200
	t0 = time.Now()
	for i := 0; i < addReps; i++ {
		for _, v := range met.FrameScore {
			sk.Add(v)
		}
	}
	lc.set("stats.sketch_add_ns", float64(time.Since(t0).Nanoseconds())/float64(addReps*len(met.FrameScore)))

	// Overlap lookups at the orientations of the replayed head trace, one
	// per frame, every tile — the inner loop of the location score.
	plane := geom.SharedTable(m.Grid(), geom.TableParams{}).Plane(geom.DefaultViewport.RadiusDeg)
	tiles := m.NumTiles()
	frames := len(met.FrameScore)
	var sink float64
	const lookupReps = 20
	t0 = time.Now()
	for r := 0; r < lookupReps; r++ {
		for f := 0; f < frames; f++ {
			l := plane.Lookup(mem.Head.At(time.Duration(f) * time.Second / 30))
			for id := 0; id < tiles; id++ {
				sink += l.Overlap(geom.TileID(id))
			}
		}
	}
	lc.set("geom.plane_lookup_ns", float64(time.Since(t0).Nanoseconds())/float64(lookupReps*frames*tiles))

	scores := quality.Scores(m, quality.PSNR)
	const rowReps = 200
	t0 = time.Now()
	for r := 0; r < rowReps; r++ {
		for c := 0; c < m.NumChunks; c++ {
			for id := 0; id < tiles; id++ {
				sink += scores.Row(c, geom.TileID(id))[0]
			}
		}
	}
	lc.set("quality.score_row_ns", float64(time.Since(t0).Nanoseconds())/float64(rowReps*m.NumChunks*tiles))
	lc.info["replay_sink"] = sink

	n := float64(popSetupCopies * len(popVideos()))
	lc.set("geom.table_build_ms", toMS(lc.setupSub["geom.table_build"])/n)
	lc.set("video.generate_ms", toMS(lc.setupSub["video.generate"])/n)
	lc.set("quality.table_build_ms", toMS(lc.setupSub["quality.table_build"])/n)
	return nil
}
