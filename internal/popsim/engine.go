package popsim

import (
	"fmt"
	"time"

	"dragonfly/internal/obs"
	"dragonfly/internal/player"
	"dragonfly/internal/quality"
	"dragonfly/internal/sim"
	"dragonfly/internal/video"
)

// Sweep describes one population sweep: every scheme plays every sampled
// member of the population (so schemes are compared on identical traffic,
// as the paper's evaluation does).
type Sweep struct {
	// Videos round-robins over the population by session index.
	Videos []*video.Manifest

	// Schemes are sim registry keys (or Extra keys); they key the rollup.
	Schemes []string
	Extra   map[string]sim.SchemeFactory

	// Sessions is the population size. Each member plays once per scheme,
	// so the sweep executes Sessions × len(Schemes) sessions in total
	// (across all shards).
	Sessions int

	Model Model

	Metric          quality.Metric
	PredictErrorDeg float64
	Workers         int // 0 = GOMAXPROCS

	// ShardIndex/ShardCount select this process's strided slice of the
	// population: member i runs here when i % ShardCount == ShardIndex.
	// Zero ShardCount means the whole population (one shard).
	ShardIndex, ShardCount int

	// Obs, when non-nil, receives the pop_* metrics (session counter,
	// per-session wall-clock histogram, throughput, cohort count).
	Obs *obs.Registry
}

// Stats reports a sweep's execution profile; Sessions counts this shard's.
type Stats = sim.Stats

// Run executes this shard's slice of the population sweep, streaming
// every finished session into the returned rollup. Same seed ⇒ identical
// rollup for any Workers value, and merging all shards of any ShardCount
// split reproduces the single-process rollup exactly (see the package
// comment for why). Pool call j samples member ShardIndex + j·ShardCount,
// plays it under every scheme, each built by its factory immediately before
// its session, and folds each result.
func Run(sw Sweep) (*Rollup, Stats, error) {
	if err := sw.validate(); err != nil {
		return nil, Stats{}, err
	}
	// The registry key doubles as the rollup key, so duplicate display
	// names cannot collide here.
	schemes, err := sim.Resolve(sw.Schemes, sw.Extra)
	if err != nil {
		return nil, Stats{}, err
	}

	rollup := NewRollup(Geometry{})
	cSessions := sw.Obs.Counter("pop_sessions")
	hSessionMS := sw.Obs.Histogram("pop_session_ms")
	members := (sw.Sessions - sw.ShardIndex + sw.ShardCount - 1) / sw.ShardCount
	st, err := sim.Pool(sw.Videos, sw.Metric, sw.Workers, members, len(schemes), func(j int) error {
		// The member's traces live only for this call: sampled, played
		// under every scheme, folded, dropped.
		i := sw.ShardIndex + j*sw.ShardCount
		mem := sw.Model.Sample(i)
		for _, s := range schemes {
			sessionStart := time.Now()
			met, err := player.Run(player.Config{
				Manifest:         sw.Videos[i%len(sw.Videos)],
				Head:             mem.Head,
				Bandwidth:        mem.Bandwidth,
				Scheme:           s.Factory(),
				Metric:           sw.Metric,
				PredictErrorDeg:  sw.PredictErrorDeg,
				PredictErrorSeed: int64(i + 1),
			})
			if err != nil {
				return fmt.Errorf("popsim: member %d scheme %s: %w", i, s.Key, err)
			}
			hSessionMS.Observe(float64(time.Since(sessionStart)) / float64(time.Millisecond))
			cSessions.Inc()
			rollup.Fold(s.Key, mem.Cohort, met)
		}
		return nil
	})
	if err != nil {
		return nil, Stats{}, err
	}
	sw.Obs.Gauge("pop_sessions_per_sec").Set(st.SessionsPerSec)
	sw.Obs.Gauge("pop_cohorts").Set(float64(countCohorts(rollup)))
	return rollup, st, nil
}

// validate checks the sweep and defaults ShardCount to one shard.
func (sw *Sweep) validate() error {
	if len(sw.Videos) == 0 {
		return fmt.Errorf("popsim: sweep needs at least one video")
	}
	if sw.Sessions <= 0 {
		return fmt.Errorf("popsim: sweep needs a positive population size")
	}
	if len(sw.Schemes) == 0 {
		return fmt.Errorf("popsim: sweep needs at least one scheme")
	}
	if err := sw.Model.Validate(); err != nil {
		return err
	}
	if sw.ShardCount <= 0 {
		sw.ShardCount = 1
	}
	if sw.ShardIndex < 0 || sw.ShardIndex >= sw.ShardCount {
		return fmt.Errorf("popsim: shard %d of %d out of range", sw.ShardIndex, sw.ShardCount)
	}
	return nil
}

func countCohorts(r *Rollup) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	seen := map[string]bool{}
	for _, cohorts := range r.schemes {
		for c := range cohorts {
			seen[c] = true
		}
	}
	return len(seen)
}
