package popsim

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dragonfly/internal/obs"
	"dragonfly/internal/player"
	"dragonfly/internal/sim"
	"dragonfly/internal/trace"
	"dragonfly/internal/video"
)

var (
	engineManifestOnce sync.Once
	engineManifestVal  *video.Manifest
)

// engineManifest is the shared tiny video for engine tests: small grid and
// few chunks so a session costs about a millisecond.
func engineManifest() *video.Manifest {
	engineManifestOnce.Do(func() {
		engineManifestVal = video.Generate(video.GenParams{
			ID: "pop", Rows: 4, Cols: 4, NumChunks: 4,
			TargetQP42Mbps: 1, TargetQP22Mbps: 8, MotionLevel: 0.3, Seed: 9,
		})
	})
	return engineManifestVal
}

// engineSweep is the fixture both the in-process tests and the re-exec'd
// shard children build, so every process simulates the same population.
func engineSweep(seed int64, sessions, workers, shardIdx, shardCount int) Sweep {
	model := DefaultModel(seed)
	model.Duration = 4 * time.Second
	return Sweep{
		Videos:     []*video.Manifest{engineManifest()},
		Schemes:    []string{"dragonfly", "pano"},
		Sessions:   sessions,
		Model:      model,
		Workers:    workers,
		ShardIndex: shardIdx,
		ShardCount: shardCount,
	}
}

// shardChildEnv is the re-exec hook: when set, TestMain runs one shard of
// the fixture sweep, writes its snapshot to stdout and exits — the test
// binary doubles as the shard subprocess.
const shardChildEnv = "POPSIM_SHARD_CHILD"

func TestMain(m *testing.M) {
	if spec := os.Getenv(shardChildEnv); spec != "" {
		var seed int64
		var sessions, shardIdx, shardCount int
		if _, err := fmt.Sscanf(spec, "%d/%d/%d/%d", &seed, &sessions, &shardIdx, &shardCount); err != nil {
			fmt.Fprintf(os.Stderr, "popsim shard child: bad spec %q: %v\n", spec, err)
			os.Exit(2)
		}
		rollup, _, err := Run(engineSweep(seed, sessions, 2, shardIdx, shardCount))
		if err == nil {
			err = rollup.WriteSnapshot(os.Stdout, shardIdx, shardCount)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "popsim shard child:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestWorkerCountInvariance is half the determinism contract: the same
// seed produces a byte-identical rollup for 1 worker and for many.
func TestWorkerCountInvariance(t *testing.T) {
	one, _, err := Run(engineSweep(42, 12, 1, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	many, _, err := Run(engineSweep(42, 12, 8, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(summaryJSON(t, one), summaryJSON(t, many)) {
		t.Fatal("rollup differs between 1 worker and 8 workers")
	}
	if one.Sessions() != 24 { // 12 members x 2 schemes
		t.Fatalf("folded %d sessions, want 24", one.Sessions())
	}
}

// TestShardEquivalence is the other half: a 4-way strided shard split,
// snapshotted and merged in any order, reproduces the single-process
// rollup exactly.
func TestShardEquivalence(t *testing.T) {
	whole, _, err := Run(engineSweep(7, 14, 4, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	const shards = 4
	merged := NewRollup(Geometry{})
	// Merge in reverse shard order on purpose: order must not matter.
	for shard := shards - 1; shard >= 0; shard-- {
		part, _, err := Run(engineSweep(7, 14, 2, shard, shards))
		if err != nil {
			t.Fatal(err)
		}
		var snap bytes.Buffer
		if err := part.WriteSnapshot(&snap, shard, shards); err != nil {
			t.Fatal(err)
		}
		if err := merged.MergeSnapshot(&snap); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(summaryJSON(t, merged), summaryJSON(t, whole)) {
		t.Fatal("merged 4-shard rollup differs from the single-process rollup")
	}
}

// TestShardSubprocessEquivalence drives the real multi-process path: four
// shard subprocesses (this test binary re-exec'd) report snapshots over
// stdout and the merged result must equal the in-process sweep.
func TestShardSubprocessEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess shards skipped in -short mode")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	const (
		seed     = 21
		sessions = 10
		shards   = 4
	)
	whole, _, err := Run(engineSweep(seed, sessions, 4, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	merged := NewRollup(Geometry{})
	for shard := 0; shard < shards; shard++ {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(),
			shardChildEnv+"="+fmt.Sprintf("%d/%d/%d/%d", int64(seed), sessions, shard, shards))
		var out, errb bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &errb
		if err := cmd.Run(); err != nil {
			t.Fatalf("shard %d: %v\n%s", shard, err, errb.String())
		}
		if err := merged.MergeSnapshot(&out); err != nil {
			t.Fatalf("shard %d snapshot: %v", shard, err)
		}
	}
	if !bytes.Equal(summaryJSON(t, merged), summaryJSON(t, whole)) {
		t.Fatal("merged subprocess-shard rollup differs from the single-process rollup")
	}
	if merged.Sessions() != int64(sessions)*2 {
		t.Fatalf("merged %d sessions, want %d", merged.Sessions(), sessions*2)
	}
}

// TestEngineObsMetrics: the pop_* registry wiring.
func TestEngineObsMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	sw := engineSweep(5, 6, 2, 0, 1)
	sw.Obs = reg
	_, st, err := Run(sw)
	if err != nil {
		t.Fatal(err)
	}
	if st.Sessions != 12 {
		t.Fatalf("stats counted %d sessions, want 12", st.Sessions)
	}
	snap := reg.Snapshot()
	if snap.Counters["pop_sessions"] != 12 {
		t.Errorf("pop_sessions = %d, want 12", snap.Counters["pop_sessions"])
	}
	if snap.Histograms["pop_session_ms"].Count != 12 {
		t.Errorf("pop_session_ms observed %d sessions, want 12", snap.Histograms["pop_session_ms"].Count)
	}
	if snap.Gauges["pop_cohorts"] <= 0 {
		t.Error("pop_cohorts gauge not set")
	}
	if snap.Gauges["pop_sessions_per_sec"] <= 0 {
		t.Error("pop_sessions_per_sec gauge not set")
	}
}

// TestSimFoldReuse: a sim cross-product sweep aggregates into the same
// rollup type — its retained results fold with Rollup.Fold, so grid sweeps
// and population sweeps summarize identically.
func TestSimFoldReuse(t *testing.T) {
	rollup := NewRollup(Geometry{})
	model := DefaultModel(3)
	model.Duration = 4 * time.Second
	m0, m1 := model.Sample(0), model.Sample(1)
	users := []*trace.HeadTrace{m0.Head, m1.Head}
	bws := []*trace.BandwidthTrace{m0.Bandwidth, m1.Bandwidth}
	res, err := sim.Run(sim.Sweep{
		Videos:     []*video.Manifest{engineManifest()},
		Users:      users,
		Bandwidths: bws,
		Schemes:    []string{"dragonfly"},
		Workers:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, met := range res["Dragonfly"] { // (user, bandwidth) order
		rollup.Fold("dragonfly", users[i/2].ClassName()+":"+bws[i%2].NetClass(), met)
	}
	if rollup.Sessions() != 4 { // 1 scheme x 1 video x 2 users x 2 bandwidths
		t.Fatalf("rollup folded %d sessions, want 4", rollup.Sessions())
	}
	sum := rollup.Summary()
	cells := sum.Schemes["dragonfly"]
	if len(cells) == 0 {
		t.Fatal("no cohorts in the folded rollup")
	}
	for cohort, cs := range cells {
		if cs.QualityDB.Count == 0 {
			t.Errorf("cohort %q folded no quality samples", cohort)
		}
	}
}

// TestFactoryOncePerSession pins the contract the pop_sweep benchmark
// times its ops by: a scheme factory runs exactly once per session, and
// with one worker each call finds exactly as many finished sessions as
// calls before it, so none is made while resolving keys or ahead of the
// session it builds for.
func TestFactoryOncePerSession(t *testing.T) {
	for _, workers := range []int{1, 2} {
		sw := engineSweep(3, 6, workers, 0, 1)
		sw.Obs = obs.NewRegistry()
		finished := sw.Obs.Counter("pop_sessions")
		var calls atomic.Int64
		sw.Extra = map[string]sim.SchemeFactory{}
		for _, key := range sw.Schemes {
			inner := sim.Registry()[key]
			sw.Extra[key] = func() player.Scheme {
				n := calls.Add(1) - 1
				if done := finished.Value(); workers == 1 && done != n {
					t.Errorf("factory call %d found %d finished sessions", n, done)
				}
				return inner()
			}
		}
		_, st, err := Run(sw)
		if err != nil {
			t.Fatal(err)
		}
		if got := calls.Load(); got != int64(st.Sessions) || st.Sessions != 12 {
			t.Errorf("workers %d: %d factory calls for %d sessions, want 12 each", workers, got, st.Sessions)
		}
	}
}

func TestEngineErrors(t *testing.T) {
	if _, _, err := Run(Sweep{}); err == nil {
		t.Error("empty sweep accepted")
	}
	sw := engineSweep(1, 4, 1, 0, 1)
	sw.Schemes = []string{"no-such-scheme"}
	if _, _, err := Run(sw); err == nil {
		t.Error("unknown scheme accepted")
	}
	// A repeated key used to fold every member twice.
	sw.Schemes = []string{"dragonfly", "dragonfly"}
	if _, _, err := Run(sw); err == nil {
		t.Error("repeated scheme key accepted")
	}
	sw = engineSweep(1, 4, 1, 5, 4)
	if _, _, err := Run(sw); err == nil {
		t.Error("out-of-range shard accepted")
	}
}
