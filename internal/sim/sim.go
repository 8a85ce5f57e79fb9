// Package sim runs session sweeps: the cross product of videos, user
// traces, bandwidth traces and schemes that produces the hundreds of
// sessions behind each of the paper's evaluation figures (§4.3 runs 770
// sessions per comparison). Sessions are independent, so the sweep fans
// out across a bounded worker pool.
package sim

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"dragonfly/internal/baseline"
	"dragonfly/internal/core"
	"dragonfly/internal/decoder"
	"dragonfly/internal/geom"
	"dragonfly/internal/obs"
	"dragonfly/internal/player"
	"dragonfly/internal/quality"
	"dragonfly/internal/trace"
	"dragonfly/internal/video"
)

// SchemeFactory builds a fresh scheme instance. Schemes hold per-session
// state (committed chunk decisions), so each session needs its own.
type SchemeFactory func() player.Scheme

// Registry returns factories for every scheme and variant in the paper's
// evaluation, keyed by the identifier used on the experiment command line.
func Registry() map[string]SchemeFactory {
	return map[string]SchemeFactory{
		// The four systems of Table 1.
		"dragonfly": func() player.Scheme { return core.NewDefault() },
		"flare":     func() player.Scheme { return baseline.NewFlare(baseline.FlareOptions{}) },
		"pano":      func() player.Scheme { return baseline.NewPano(baseline.PanoOptions{}) },
		"twotier":   func() player.Scheme { return baseline.NewTwoTier(baseline.TwoTierOptions{}) },

		// PSPNR-optimizing variants (§4.3, Fig 10).
		"dragonfly-pspnr": func() player.Scheme {
			return core.New(core.Options{Metric: quality.PSPNR, Name: "Dragonfly-PSPNR"})
		},
		"pano-pspnr": func() player.Scheme {
			return baseline.NewPano(baseline.PanoOptions{Metric: quality.PSPNR})
		},

		// 1-second look-ahead sensitivity variants (§4.3).
		"flare-1s": func() player.Scheme {
			return baseline.NewFlare(baseline.FlareOptions{Lookahead: time.Second, Name: "Flare-1s"})
		},
		"pano-1s": func() player.Scheme {
			return baseline.NewPano(baseline.PanoOptions{Lookahead: time.Second, Name: "Pano-1s"})
		},

		// Table 2 ablation variants.
		"passiveskip": func() player.Scheme { return baseline.NewPassiveSkip() },
		"perchunk": func() player.Scheme {
			return core.New(core.Options{DecisionInterval: time.Second, Name: "PerChunk"})
		},
		"nomask": func() player.Scheme {
			return core.New(core.Options{Masking: core.MaskNone, Name: "NoMask"})
		},

		// Masking-strategy variant (Fig 19): the user-study configuration.
		"dragonfly-tiled": func() player.Scheme {
			return core.New(core.Options{Masking: core.MaskTiled, Name: "Dragonfly-Tiled"})
		},

		// §3.2 future-work optimization: utility-scheduled tiled masking.
		"dragonfly-tiled-sched": func() player.Scheme {
			return core.New(core.Options{Masking: core.MaskTiled, MaskScheduled: true, Name: "Dragonfly-TiledSched"})
		},
	}
}

// Sweep describes a full experiment: each scheme plays every
// (video, user, bandwidth) combination.
type Sweep struct {
	Videos     []*video.Manifest
	Users      []*trace.HeadTrace
	Bandwidths []*trace.BandwidthTrace
	Schemes    []string // registry keys (or Extra keys)

	// Extra supplies ad-hoc scheme factories (consulted before the
	// registry), for ablations of configurations the registry doesn't
	// name.
	Extra map[string]SchemeFactory

	// Decoder, when set, builds a per-session media-decode model.
	Decoder func() *decoder.Model

	// MaskInterpolation enables neighbor interpolation of masking holes
	// (§3.2 future work) in every session.
	MaskInterpolation bool

	Metric          quality.Metric
	PredictErrorDeg float64
	Workers         int // 0 = GOMAXPROCS

	// Obs, when non-nil, receives sweep throughput metrics: a sim_sessions
	// counter and a sim_session_ms wall-clock histogram.
	Obs *obs.Registry

	// TraceDir, when non-empty, writes one JSONL event trace per session to
	// <TraceDir>/<scheme key>_<index>.jsonl (the directory is created).
	TraceDir string
}

// Stats reports a sweep's execution profile.
type Stats struct {
	Sessions       int           // sessions executed
	Wall           time.Duration // sweep wall-clock time
	SessionsPerSec float64       // throughput (0 when Wall is 0)
}

// Results maps scheme display name to its session metrics, in a stable
// (video, user, bandwidth) order.
type Results map[string][]*player.Metrics

// Run executes the sweep.
func Run(sw Sweep) (Results, error) {
	res, _, err := RunWithStats(sw)
	return res, err
}

// RunWithStats executes the sweep and also reports its execution profile
// (session count, wall time, throughput).
func RunWithStats(sw Sweep) (Results, Stats, error) {
	started := time.Now()
	res, sessions, err := run(sw)
	stats := Stats{Wall: time.Since(started), Sessions: sessions}
	if secs := stats.Wall.Seconds(); secs > 0 {
		stats.SessionsPerSec = float64(stats.Sessions) / secs
	}
	if err == nil {
		sw.Obs.Counter("sim_sessions").Add(int64(stats.Sessions))
		sw.Obs.Gauge("sim_sessions_per_sec").Set(stats.SessionsPerSec)
	}
	return res, stats, err
}

func run(sw Sweep) (Results, int, error) {
	reg := Registry()
	type job struct {
		scheme  string
		factory SchemeFactory
		cfg     player.Config
		idx     int
	}
	var jobs []job
	perScheme := len(sw.Videos) * len(sw.Users) * len(sw.Bandwidths)
	if perScheme == 0 {
		return nil, 0, fmt.Errorf("sim: sweep needs videos, users and bandwidth traces")
	}
	if sw.TraceDir != "" {
		if err := os.MkdirAll(sw.TraceDir, 0o755); err != nil {
			return nil, 0, fmt.Errorf("sim: trace dir: %w", err)
		}
	}
	// Results are keyed by the scheme's display name, so two sweep keys
	// resolving to the same name (e.g. an Extra factory shadowing a registry
	// scheme) would silently overwrite each other's sessions. Detect the
	// collision up front, before any session runs.
	keyByName := map[string]string{}
	for _, key := range sw.Schemes {
		factory, ok := sw.Extra[key]
		if !ok {
			factory, ok = reg[key]
		}
		if !ok {
			return nil, 0, fmt.Errorf("sim: unknown scheme %q", key)
		}
		name := factory().Name()
		if prev, ok := keyByName[name]; ok && prev != key {
			return nil, 0, fmt.Errorf("sim: scheme keys %q and %q share display name %q; their results would overwrite each other", prev, key, name)
		}
		keyByName[name] = key
		i := 0
		for _, v := range sw.Videos {
			for _, u := range sw.Users {
				for _, b := range sw.Bandwidths {
					jobs = append(jobs, job{
						scheme:  key,
						factory: factory,
						idx:     i,
						cfg: player.Config{
							Manifest:         v,
							Head:             u,
							Bandwidth:        b,
							Metric:           sw.Metric,
							PredictErrorDeg:  sw.PredictErrorDeg,
							PredictErrorSeed: int64(i + 1),
						},
					})
					i++
				}
			}
		}
	}

	// Pre-warm the process-wide shared tables once per manifest before the
	// workers start: the overlap tables and score tables are built lazily
	// behind sync.Once, so building them here keeps every worker on the
	// read-only fast path instead of stampeding the same construction.
	for _, v := range sw.Videos {
		g := v.Grid()
		tab := geom.SharedTable(g, geom.TableParams{})
		geom.DefaultRoIs.Planes(tab)
		tab.Plane(geom.DefaultViewport.RadiusDeg)
		quality.Scores(v, sw.Metric)
	}

	workers := sw.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	type outcome struct {
		scheme string
		idx    int
		met    *player.Metrics
		err    error
	}
	jobCh := make(chan job)
	// The collector drains outcomes as they finish, so the channel only
	// needs to absorb scheduling jitter.
	outCh := make(chan outcome, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobCh {
				cfg := j.cfg
				cfg.Scheme = j.factory()
				if sw.Decoder != nil {
					cfg.Decoder = sw.Decoder()
				}
				cfg.MaskInterpolation = sw.MaskInterpolation
				if sw.Obs != nil {
					if o, ok := cfg.Scheme.(interface{ SetObs(*obs.Registry) }); ok {
						o.SetObs(sw.Obs)
					}
				}
				if sw.TraceDir != "" {
					cfg.Trace = obs.NewTrace(0)
				}
				sessionStart := time.Now()
				met, err := player.Run(cfg)
				sw.Obs.Histogram("sim_session_ms").Observe(float64(time.Since(sessionStart)) / float64(time.Millisecond))
				if err == nil && sw.TraceDir != "" {
					err = writeSessionTrace(sw.TraceDir, j.scheme, j.idx, cfg.Trace)
				}
				outCh <- outcome{scheme: j.scheme, idx: j.idx, met: met, err: err}
			}
		}()
	}

	// One collector goroutine gathers outcomes as they land.
	var (
		collectErr  error
		sessions    int
		byScheme    = map[string][]outcome{}
		collectDone = make(chan struct{})
	)
	go func() {
		defer close(collectDone)
		for o := range outCh {
			if o.err != nil {
				if collectErr == nil {
					collectErr = o.err
				}
				continue
			}
			if collectErr != nil {
				continue // error pending; drop the rest
			}
			sessions++
			byScheme[o.scheme] = append(byScheme[o.scheme], o)
		}
	}()
	for _, j := range jobs {
		jobCh <- j
	}
	close(jobCh)
	wg.Wait()
	close(outCh)
	<-collectDone

	if collectErr != nil {
		return nil, 0, collectErr
	}
	res := Results{}
	for key, outs := range byScheme {
		sort.Slice(outs, func(a, b int) bool { return outs[a].idx < outs[b].idx })
		name := outs[0].met.SchemeName
		if _, dup := res[name]; dup {
			return nil, 0, fmt.Errorf("sim: duplicate display name %q (key %q)", name, key)
		}
		mets := make([]*player.Metrics, len(outs))
		for i, o := range outs {
			mets[i] = o.met
		}
		res[name] = mets
	}
	return res, sessions, nil
}

// writeSessionTrace dumps one session's event trace as JSONL.
func writeSessionTrace(dir, key string, idx int, tr *obs.Trace) (err error) {
	path := filepath.Join(dir, fmt.Sprintf("%s_%04d.jsonl", key, idx))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("sim: session trace: %w", err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("sim: session trace %s: %w", path, cerr)
		}
	}()
	if err := tr.WriteJSONL(f); err != nil {
		return fmt.Errorf("sim: session trace %s: %w", path, err)
	}
	return nil
}

// PooledFrameScores concatenates every session's per-frame quality scores —
// the "distribution of PSNR across viewports of all sessions" the paper's
// CDFs plot.
func PooledFrameScores(sessions []*player.Metrics) []float64 {
	var out []float64
	for _, s := range sessions {
		out = append(out, s.FrameScore...)
	}
	return out
}

// SessionStat extracts one scalar per session.
func SessionStat(sessions []*player.Metrics, f func(*player.Metrics) float64) []float64 {
	out := make([]float64, len(sessions))
	for i, s := range sessions {
		out[i] = f(s)
	}
	return out
}
