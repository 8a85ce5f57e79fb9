package sim

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"dragonfly/internal/geom"
	"dragonfly/internal/quality"
	"dragonfly/internal/video"
)

// Keyed is a scheme factory under its sweep key.
type Keyed struct {
	Key     string
	Factory SchemeFactory
}

// Resolve looks each key up in extra, then in Registry(). An unknown or a
// repeated key is an error: a repeated key would play every session twice
// and report them under one name. Resolve calls no factory, so a sweep
// builds each scheme instance immediately before the session it plays.
func Resolve(keys []string, extra map[string]SchemeFactory) ([]Keyed, error) {
	reg := Registry()
	out := make([]Keyed, 0, len(keys))
	seen := make(map[string]bool, len(keys))
	for _, key := range keys {
		if seen[key] {
			return nil, fmt.Errorf("sim: scheme %q listed twice", key)
		}
		seen[key] = true
		factory, ok := extra[key]
		if !ok {
			factory, ok = reg[key]
		}
		if !ok {
			return nil, fmt.Errorf("sim: unknown scheme %q", key)
		}
		out = append(out, Keyed{Key: key, Factory: factory})
	}
	return out, nil
}

// Stats reports a sweep's execution profile.
type Stats struct {
	Sessions       int           // sessions executed
	Wall           time.Duration // sweep wall-clock time
	SessionsPerSec float64       // throughput (0 when Wall is 0)
}

// Pool is the one worker pool under every session sweep (sim, popsim and
// the user study). It calls do(0) … do(n-1) on workers goroutines
// (GOMAXPROCS when workers ≤ 0), handing the indices out in increasing
// order, each exactly once. The first error stops the hand-out; Pool
// returns it unwrapped once every call already started has returned.
//
// Before the first call it builds the process-wide shared tables of every
// video: they are built lazily behind sync.Once, so building them here keeps
// every worker on the read-only fast path instead of stampeding the same
// construction. Each call plays perCall sessions, which Stats counts.
func Pool(videos []*video.Manifest, metric quality.Metric, workers, n, perCall int, do func(i int) error) (Stats, error) {
	started := time.Now()
	for _, v := range videos {
		geom.SharedTable(v.Grid(), geom.TableParams{}).RoIPlane(geom.DefaultRoIs)
		quality.Scores(v, metric)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var (
		mu       sync.Mutex
		next     int
		firstErr error
		wg       sync.WaitGroup
	)
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if firstErr != nil || next >= n {
			return 0, false
		}
		next++
		return next - 1, true
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, ok := take(); ok; i, ok = take() {
				if err := do(i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return Stats{}, firstErr
	}
	st := Stats{Sessions: n * perCall, Wall: time.Since(started)}
	if secs := st.Wall.Seconds(); secs > 0 {
		st.SessionsPerSec = float64(st.Sessions) / secs
	}
	return st, nil
}
