// Package experiments regenerates every table and figure of the paper's
// evaluation (§4, Appendix A). Each experiment is a function that runs the
// required sessions and prints the rows/series the paper reports, alongside
// the paper's own numbers for comparison; EXPERIMENTS.md records both.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"dragonfly/internal/obs"
	"dragonfly/internal/sim"
	"dragonfly/internal/trace"
	"dragonfly/internal/video"
)

// Env bundles the datasets every experiment draws from: the Table 3 videos,
// the user head traces, and the two filtered bandwidth-trace sets (§4.2).
type Env struct {
	Videos  []*video.Manifest
	Users   []*trace.HeadTrace
	Belgian []*trace.BandwidthTrace
	Irish   []*trace.BandwidthTrace

	// CSVDir, when set, makes the distribution experiments (Figs 9, 11, 12)
	// also dump their CDF series as CSV files for replotting.
	CSVDir string

	// Obs, when non-nil, collects sweep metrics (session counts, per-session
	// wall time, scheduler counters) across every experiment run in this
	// environment.
	Obs *obs.Registry

	// TraceDir, when set, makes every sweep dump one JSONL event trace per
	// session under it (see sim.Sweep.TraceDir).
	TraceDir string

	// LastSweep records the execution profile of the most recent sweep, for
	// per-experiment wall-clock and throughput reporting.
	LastSweep sim.Stats
}

// sweep runs one sim sweep with the environment's observability settings
// (metrics registry, session trace directory) injected, records its
// execution profile in LastSweep, and summarizes every scheme in it. A
// non-empty csvPrefix marks a distribution figure: with CSVDir set, its
// CDF series are dumped there under that prefix.
func (e *Env) sweep(csvPrefix string, sw sim.Sweep) (sim.Results, map[string]SchemeSummary, error) {
	sw.Obs = e.Obs
	sw.TraceDir = e.TraceDir
	res, stats, err := sim.RunWithStats(sw)
	e.LastSweep = stats
	if err != nil {
		return nil, nil, err
	}
	sums := make(map[string]SchemeSummary, len(res))
	for name, sessions := range res {
		sums[name] = summarize(name, sessions)
	}
	if csvPrefix != "" && e.CSVDir != "" {
		if err := dumpResultCDFs(e.CSVDir, csvPrefix, res); err != nil {
			return nil, nil, err
		}
	}
	return res, sums, nil
}

// DefaultEnv builds the paper-scale environment: 7 videos × 10 users × 11
// Belgian traces (770 sessions per scheme in Fig 9) and 10 Irish traces.
func DefaultEnv() *Env {
	videos := video.Dataset(0)
	users := trace.DefaultUserTraces(10)
	env := &Env{
		Videos:  videos,
		Users:   users,
		Belgian: trace.DefaultBelgianTraces(11),
		Irish:   trace.DefaultIrishTraces(10),
	}
	env.fillMaskDisplacement()
	return env
}

// SmallEnv is a scaled-down environment for tests and quick runs: smaller
// grids, fewer chunks, fewer combinations — same code paths.
func SmallEnv() *Env {
	entries := []video.DatasetEntry{
		{ID: "v1", QP42Mbps: 0.9, QP22Mbps: 10.4, MotionLevel: 0.2, Seed: 101},
		{ID: "v8", QP42Mbps: 3.1, QP22Mbps: 28.4, MotionLevel: 0.55, Seed: 108},
	}
	var videos []*video.Manifest
	for _, e := range entries {
		videos = append(videos, video.Generate(video.GenParams{
			ID: e.ID, Rows: 8, Cols: 8, NumChunks: 15,
			TargetQP42Mbps: e.QP42Mbps, TargetQP22Mbps: e.QP22Mbps,
			MotionLevel: e.MotionLevel, Seed: e.Seed,
		}))
	}
	var users []*trace.HeadTrace
	for i := 0; i < 3; i++ {
		users = append(users, trace.GenerateHead(trace.HeadGenParams{
			UserID: fmt.Sprintf("u%d", i+1), Class: trace.MotionClass(i % 3),
			Duration: 15 * time.Second, Seed: int64(1000 + i),
		}))
	}
	env := &Env{
		Videos:  videos,
		Users:   users,
		Belgian: trace.DefaultBelgianTraces(3),
		Irish:   trace.DefaultIrishTraces(3),
	}
	env.fillMaskDisplacement()
	return env
}

// fillMaskDisplacement derives each video's per-chunk displacement bound
// from a held-out set of user traces, as the user study does (§4.5,
// Appendix: bounds trained on 20 trajectories, evaluated on the rest).
func (e *Env) fillMaskDisplacement() {
	training := make([]*trace.HeadTrace, 0, 20)
	for i := 0; i < 20; i++ {
		training = append(training, trace.GenerateHead(trace.HeadGenParams{
			UserID: fmt.Sprintf("train%d", i), Class: trace.MotionClass(i % 3),
			Seed: int64(5000 + i),
		}))
	}
	for _, v := range e.Videos {
		chunkDur := time.Duration(v.ChunkFrames) * time.Second / time.Duration(v.FPS)
		disp := trace.MaxDisplacementPerChunk(training, chunkDur, v.NumChunks)
		copy(v.MaskDisplacement, disp)
	}
}

// fprintf writes formatted output, panicking on writer failure (experiment
// output targets are in-memory buffers or stdout).
func fprintf(w io.Writer, format string, args ...any) {
	if _, err := fmt.Fprintf(w, format, args...); err != nil {
		panic(err)
	}
}

// sortedNames returns map keys in deterministic order.
func sortedNames[T any](m map[string]T) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
