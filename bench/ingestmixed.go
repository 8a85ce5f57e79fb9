package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"dragonfly/internal/ingest"
	"dragonfly/internal/sim"
	"dragonfly/internal/trace"
	"dragonfly/internal/video"
)

const (
	// pushesPerCycle session traces are pushed, then the rollup is polled
	// once; every snapshotEvery-th cycle also writes a snapshot.
	pushesPerCycle = 16
	snapshotEvery  = 32
)

// ingestMixed: op = one cycle of 16 trace pushes and one feedback poll against
// one aggregator. It is the only workload in ingest, stats sketches and the
// obs JSON schema, and it puts writes (fold) beside reads (rollup, under the
// same lock), so a rollup cache that slows folding, or the reverse, shows in
// the cycle time. It touches no streaming layer.
type ingestMixed struct {
	chunks, usersPerClass int
	setupCopies           int
	corpus                [][]byte // JSONL session traces, one per file
	lines                 int      // JSONL lines in the corpus
	traceDir, seedSnap    string   // inputs of set-up: trace files, a snapshot
	runSnap               string   // where cycles write snapshots

	agg     *ingest.Aggregator // last build
	cancel  context.CancelFunc
	done    <-chan error
	pushers [Workers]*ingest.Pusher
	polls   [Workers]*ingest.Feedback
}

func newIngestMixed(short bool) *ingestMixed {
	g := &ingestMixed{chunks: 20, usersPerClass: 4, setupCopies: 2}
	if short {
		g.chunks, g.usersPerClass = 3, 1
	}
	return g
}

// netClasses are the four network classes of the corpus; with the three
// motion classes they give twelve cohorts.
var netClasses = []struct {
	name  string
	means []float64
}{
	{"belgian", []float64{9, 13, 18, 24}},
	{"irish", []float64{14, 20, 26}},
	{"dsl", []float64{6, 8, 11}},
	{"fiber", []float64{22, 26, 28}},
}

// gen produces the corpus with a real sweep: every user (usersPerClass per
// motion class) plays one video over one bandwidth trace per network class,
// Dragonfly scheduling, traces written by sim.Sweep's TraceDir. It also folds
// the corpus once into a snapshot for set-up's ReadSnapshot.
func (g *ingestMixed) gen(seed int64, tmp string) error {
	g.traceDir = filepath.Join(tmp, "traces")
	g.seedSnap = filepath.Join(tmp, "snap-seed")
	g.runSnap = filepath.Join(tmp, "snap-run")
	for _, d := range []string{g.seedSnap, g.runSnap} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	dur := time.Duration(g.chunks) * time.Second
	var users []*trace.HeadTrace
	for i := 0; i < 3*g.usersPerClass; i++ {
		users = append(users, trace.GenerateHead(trace.HeadGenParams{
			UserID: fmt.Sprintf("u%d", i+1), Class: trace.MotionClass(i % 3), Duration: dur, Seed: seed*1000 + int64(i),
		}))
	}
	var bws []*trace.BandwidthTrace
	for i, nc := range netClasses {
		bws = append(bws, trace.GenerateBandwidth(trace.BandwidthGenParams{
			ID: fmt.Sprintf("%s-%d", nc.name, seed), Duration: dur, Seed: seed*1000 + 500 + int64(i),
			StateMeansMbps: nc.means, SwitchPerSec: 0.25, NoiseFrac: 0.15,
		}))
	}
	_, err := sim.Run(sim.Sweep{
		Videos: []*video.Manifest{genManifest(video.Table3[0], g.chunks)},
		Users:  users, Bandwidths: bws, Schemes: []string{"dragonfly"},
		TraceDir: g.traceDir, Workers: Workers,
	})
	if err != nil {
		return err
	}
	files, err := filepath.Glob(filepath.Join(g.traceDir, "*.jsonl"))
	if err != nil {
		return err
	}
	sort.Strings(files)
	if len(files) != len(users)*len(bws) {
		return fmt.Errorf("corpus has %d traces, want %d", len(files), len(users)*len(bws))
	}
	seedAgg := ingest.New(ingest.Config{})
	for _, f := range files {
		body, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		n, err := seedAgg.FoldReader(bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
		g.lines += n
		g.corpus = append(g.corpus, body)
	}
	_, err = seedAgg.WriteSnapshot(g.seedSnap)
	return err
}

func (g *ingestMixed) build(sub map[string]time.Duration) error {
	for c := 0; c < g.setupCopies; c++ {
		g.agg = ingest.New(ingest.Config{})
		t0 := time.Now()
		if _, err := ingest.ReadSnapshot(g.seedSnap); err != nil {
			return err
		}
		sub["ingest.snapshot_read"] += time.Since(t0)
		t0 = time.Now()
		if err := ingest.NewWatcher(g.agg, g.traceDir, 0).Scan(); err != nil {
			return err
		}
		sub["ingest.watch_scan"] += time.Since(t0)
	}
	return nil
}

func (g *ingestMixed) start() error {
	ctx, cancel := context.WithCancel(context.Background())
	addr, done, err := g.agg.Serve(ctx, "127.0.0.1:0")
	if err != nil {
		cancel()
		return err
	}
	g.cancel, g.done = cancel, done
	url := "http://" + addr.String()
	for w := range g.pushers {
		g.pushers[w] = ingest.NewPusher(ingest.PushConfig{URL: url + "/ingest", Seed: int64(w + 1)})
		g.polls[w] = ingest.NewFeedback(ingest.FeedbackConfig{URL: url + "/rollup", TargetDB: 40, Seed: int64(w + 1)})
	}
	return nil
}

func (g *ingestMixed) stop() error {
	if g.cancel == nil {
		return nil
	}
	g.cancel()
	g.cancel = nil
	return <-g.done
}

func (g *ingestMixed) unit(u int64, rec *recorder) error {
	tr := rec.tr
	ctx := context.Background()
	t0 := time.Now()
	root := tr.begin("driver.cycle", -1, u)
	defer tr.end(root)
	for j := 0; j < pushesPerCycle; j++ {
		body := g.corpus[(int(u)*pushesPerCycle+j)%len(g.corpus)]
		sp := tr.begin("ingest.push", root, u)
		err := g.pushers[rec.worker].Push(ctx, body)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("push: %w", err)
		}
		rec.bytes += int64(len(body))
	}
	sp := tr.begin("ingest.poll", root, u)
	err := g.polls[rec.worker].Poll(ctx)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("poll: %w", err)
	}
	if u%snapshotEvery == snapshotEvery-1 {
		sp := tr.begin("ingest.write_snapshot", root, u)
		_, err := g.agg.WriteSnapshot(g.runSnap)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
	}
	rec.op(t0, true)
	return nil
}

func (g *ingestMixed) checks(tot totals, info map[string]any) []Check {
	ru := g.agg.Rollup()
	var sessions int64
	for _, c := range ru.Cohorts {
		sessions += c.Sessions
	}
	// Every pushed trace is one session; the watcher's first scan folded the
	// corpus once before service.
	want := int64(len(g.corpus)) + tot.ops*pushesPerCycle
	info["cohorts"] = len(ru.Cohorts)
	info["corpus_traces"] = len(g.corpus)
	info["corpus_lines"] = g.lines
	out := []Check{{
		Name: "sessions_folded_exact", OK: sessions == want && tot.failed == 0,
		Detail: fmt.Sprintf("rollup holds %d sessions, want %d", sessions, want),
	}}
	scalesOK := len(ru.Cohorts) > 0
	for name := range ru.Cohorts {
		for _, p := range g.polls {
			if s := p.CohortScale(name); math.IsNaN(s) || s <= 0 {
				scalesOK = false
			}
		}
	}
	out = append(out, Check{Name: "feedback_scales_usable", OK: scalesOK})
	if tot.units >= snapshotEvery {
		_, err := ingest.ReadSnapshot(g.runSnap)
		c := Check{Name: "snapshot_readable", OK: err == nil}
		if err != nil {
			c.Detail = err.Error()
		}
		out = append(out, c)
	}
	return out
}

func (g *ingestMixed) layers(lc *layerCtx) error {
	pushes := busyEach(lc.traced.tracers, "ingest.push")
	polls := busyEach(lc.traced.tracers, "ingest.poll")
	pushP50 := percentile(pushes, 50)
	lc.set("ingest.push_ms_p50", pushP50)
	lc.set("ingest.poll_ms_p50", percentile(polls, 50))
	lc.info["push_samples"] = len(pushes)
	lc.info["poll_samples"] = len(polls)

	// Direct fold of the same bodies, no HTTP.
	scratch := ingest.New(ingest.Config{})
	const reps = 5
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for _, body := range g.corpus {
			if _, err := scratch.FoldReader(bytes.NewReader(body)); err != nil {
				return err
			}
		}
	}
	foldD := time.Since(t0)
	lc.set("ingest.fold_us_per_event", toUS(foldD)/float64(reps*g.lines))
	lc.set("ingest.http_overhead_ms", pushP50-toMS(foldD)/float64(reps*len(g.corpus)))

	const rollupReps = 20
	t0 = time.Now()
	var ru ingest.Rollup
	for r := 0; r < rollupReps; r++ {
		ru = g.agg.Rollup()
	}
	lc.set("ingest.rollup_build_ms", toMS(time.Since(t0))/rollupReps)
	js, err := json.MarshalIndent(ru, "", "  ")
	if err != nil {
		return err
	}
	lc.set("ingest.rollup_json_kb", float64(len(js))/1024)

	snaps := busyEach(lc.traced.tracers, "ingest.write_snapshot")
	if len(snaps) == 0 { // a traced phase shorter than snapshotEvery cycles
		t0 = time.Now()
		if _, err := g.agg.WriteSnapshot(g.runSnap); err != nil {
			return err
		}
		snaps = []float64{toMS(time.Since(t0))}
	}
	lc.set("ingest.snapshot_write_ms", percentile(snaps, 50))

	copies := float64(g.setupCopies)
	lc.set("ingest.watch_scan_ms_per_file", toMS(lc.setupSub["ingest.watch_scan"])/copies/float64(len(g.corpus)))
	lc.set("ingest.snapshot_read_ms", toMS(lc.setupSub["ingest.snapshot_read"])/copies)
	return nil
}
