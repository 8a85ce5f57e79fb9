// Package sim runs session sweeps: the cross product of videos, user
// traces, bandwidth traces and schemes that produces the hundreds of
// sessions behind each of the paper's evaluation figures (§4.3 runs 770
// sessions per comparison). Sessions are independent, so the sweep fans
// out across Pool, the one worker pool under sim, popsim and the user study.
package sim

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dragonfly/internal/baseline"
	"dragonfly/internal/core"
	"dragonfly/internal/decoder"
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
	perScheme := len(sw.Videos) * len(sw.Users) * len(sw.Bandwidths)
	if perScheme == 0 {
		return nil, Stats{}, fmt.Errorf("sim: sweep needs videos, users and bandwidth traces")
	}
	schemes, err := Resolve(sw.Schemes, sw.Extra)
	if err != nil {
		return nil, Stats{}, err
	}
	if sw.TraceDir != "" {
		if err := os.MkdirAll(sw.TraceDir, 0o755); err != nil {
			return nil, Stats{}, fmt.Errorf("sim: trace dir: %w", err)
		}
	}
	// Results are keyed by the scheme's display name, so two sweep keys
	// resolving to the same name (e.g. an Extra factory shadowing a registry
	// scheme) would silently overwrite each other's sessions. Detect the
	// collision up front, before any session runs.
	res := make(Results, len(schemes))
	out := make([][]*player.Metrics, len(schemes))
	keyByName := map[string]string{}
	for k, s := range schemes {
		name := s.Factory().Name()
		if prev, ok := keyByName[name]; ok {
			return nil, Stats{}, fmt.Errorf("sim: scheme keys %q and %q share display name %q; their results would overwrite each other", prev, s.Key, name)
		}
		keyByName[name] = s.Key
		out[k] = make([]*player.Metrics, perScheme)
		res[name] = out[k]
	}

	// Job j plays scheme j/perScheme on combination j%perScheme.
	hSessionMS := sw.Obs.Histogram("sim_session_ms")
	stats, err := Pool(sw.Videos, sw.Metric, sw.Workers, len(schemes)*perScheme, 1, func(j int) error {
		k, i := j/perScheme, j%perScheme
		cfg := sw.config(schemes[k].Factory(), i)
		sessionStart := time.Now()
		met, err := player.Run(cfg)
		hSessionMS.Observe(float64(time.Since(sessionStart)) / float64(time.Millisecond))
		if err == nil && sw.TraceDir != "" {
			err = writeSessionTrace(sw.TraceDir, schemes[k].Key, i, cfg.Trace)
		}
		out[k][i] = met
		return err
	})
	if err != nil {
		return nil, Stats{}, err
	}
	sw.Obs.Counter("sim_sessions").Add(int64(stats.Sessions))
	sw.Obs.Gauge("sim_sessions_per_sec").Set(stats.SessionsPerSec)
	return res, stats, nil
}

// config builds the session that plays scheme on combination i of the
// (video, user, bandwidth) product, in that nesting order.
func (sw *Sweep) config(scheme player.Scheme, i int) player.Config {
	nU, nB := len(sw.Users), len(sw.Bandwidths)
	cfg := player.Config{
		Manifest:          sw.Videos[i/(nU*nB)],
		Head:              sw.Users[i/nB%nU],
		Bandwidth:         sw.Bandwidths[i%nB],
		Scheme:            scheme,
		Metric:            sw.Metric,
		PredictErrorDeg:   sw.PredictErrorDeg,
		PredictErrorSeed:  int64(i + 1),
		MaskInterpolation: sw.MaskInterpolation,
	}
	if sw.Decoder != nil {
		cfg.Decoder = sw.Decoder()
	}
	if sw.Obs != nil {
		if o, ok := scheme.(interface{ SetObs(*obs.Registry) }); ok {
			o.SetObs(sw.Obs)
		}
	}
	if sw.TraceDir != "" {
		cfg.Trace = obs.NewTrace(0)
	}
	return cfg
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
