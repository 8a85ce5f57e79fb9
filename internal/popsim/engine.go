package popsim

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"dragonfly/internal/geom"
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

// Stats reports a sweep's execution profile.
type Stats struct {
	Sessions       int           // sessions executed in this shard
	Wall           time.Duration // sweep wall-clock time
	SessionsPerSec float64       // throughput (0 when Wall is 0)
}

// Run executes this shard's slice of the population sweep, streaming
// every finished session into the returned rollup. Same seed ⇒ identical
// rollup for any Workers value, and merging all shards of any ShardCount
// split reproduces the single-process rollup exactly (see the package
// comment for why).
func Run(sw Sweep) (*Rollup, Stats, error) {
	started := time.Now()
	if len(sw.Videos) == 0 {
		return nil, Stats{}, fmt.Errorf("popsim: sweep needs at least one video")
	}
	if sw.Sessions <= 0 {
		return nil, Stats{}, fmt.Errorf("popsim: sweep needs a positive population size")
	}
	if len(sw.Schemes) == 0 {
		return nil, Stats{}, fmt.Errorf("popsim: sweep needs at least one scheme")
	}
	if err := sw.Model.Validate(); err != nil {
		return nil, Stats{}, err
	}
	if sw.ShardCount <= 0 {
		sw.ShardCount = 1
	}
	if sw.ShardIndex < 0 || sw.ShardIndex >= sw.ShardCount {
		return nil, Stats{}, fmt.Errorf("popsim: shard %d of %d out of range", sw.ShardIndex, sw.ShardCount)
	}

	// Resolve factories up front; the registry key doubles as the rollup
	// key, so duplicate display names cannot collide here.
	reg := sim.Registry()
	type schemeRun struct {
		key     string
		factory sim.SchemeFactory
	}
	schemes := make([]schemeRun, 0, len(sw.Schemes))
	for _, key := range sw.Schemes {
		factory, ok := sw.Extra[key]
		if !ok {
			factory, ok = reg[key]
		}
		if !ok {
			return nil, Stats{}, fmt.Errorf("popsim: unknown scheme %q", key)
		}
		schemes = append(schemes, schemeRun{key: key, factory: factory})
	}

	// Pre-warm the process-wide shared tables once per manifest (the sim
	// pattern): workers then stay on the read-only fast path instead of
	// stampeding the lazy construction.
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

	rollup := NewRollup(Geometry{})
	cSessions := sw.Obs.Counter("pop_sessions")
	hSessionMS := sw.Obs.Histogram("pop_session_ms")

	idxCh := make(chan int, workers)
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
		failed   = make(chan struct{})
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			close(failed)
		})
	}
	aborted := func() bool {
		select {
		case <-failed:
			return true
		default:
			return false
		}
	}
	sessions := 0
	var sessionsMu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ran := 0
			defer func() {
				sessionsMu.Lock()
				sessions += ran
				sessionsMu.Unlock()
			}()
			for i := range idxCh {
				if aborted() {
					continue // drain without working
				}
				// The member's traces live only for this loop iteration:
				// sampled, played under every scheme, folded, dropped.
				mem := sw.Model.Sample(i)
				manifest := sw.Videos[i%len(sw.Videos)]
				for _, sr := range schemes {
					sessionStart := time.Now()
					met, err := player.Run(player.Config{
						Manifest:         manifest,
						Head:             mem.Head,
						Bandwidth:        mem.Bandwidth,
						Scheme:           sr.factory(),
						Metric:           sw.Metric,
						PredictErrorDeg:  sw.PredictErrorDeg,
						PredictErrorSeed: int64(i + 1),
					})
					if err != nil {
						fail(fmt.Errorf("popsim: member %d scheme %s: %w", i, sr.key, err))
						break
					}
					hSessionMS.Observe(float64(time.Since(sessionStart)) / float64(time.Millisecond))
					cSessions.Inc()
					ran++
					rollup.Fold(sr.key, mem.Cohort, met)
				}
			}
		}()
	}
	for i := sw.ShardIndex; i < sw.Sessions; i += sw.ShardCount {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()
	if firstErr != nil {
		return nil, Stats{}, firstErr
	}

	st := Stats{Sessions: sessions, Wall: time.Since(started)}
	if secs := st.Wall.Seconds(); secs > 0 {
		st.SessionsPerSec = float64(st.Sessions) / secs
	}
	sw.Obs.Gauge("pop_sessions_per_sec").Set(st.SessionsPerSec)
	sw.Obs.Gauge("pop_cohorts").Set(float64(countCohorts(rollup)))
	return rollup, st, nil
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
