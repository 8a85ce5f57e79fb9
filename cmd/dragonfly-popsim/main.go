// Command dragonfly-popsim runs population-scale scheme sweeps: it samples
// a synthetic population of viewers (motion class × network class mixtures),
// plays every member under every scheme, and streams the finished sessions
// into per-(scheme, cohort) quantile sketches. Memory stays bounded by the
// sketch geometry, so million-session populations run in a fixed footprint.
// Same seed ⇒ identical rollup for any -workers value (see
// docs/PERFORMANCE.md, "Population sweeps").
//
// Usage:
//
//	dragonfly-popsim -sessions 100000 -schemes dragonfly,pano -seed 7
//	dragonfly-popsim -sessions 1000000 -workers 4 -out rollup.json
package main

import (
	"flag"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"dragonfly/internal/obs"
	"dragonfly/internal/popsim"
	"dragonfly/internal/video"
)

func main() {
	sessions := flag.Int("sessions", 100_000, "population size (each member plays once per scheme)")
	schemes := flag.String("schemes", "dragonfly,flare,pano", "comma-separated sim registry scheme keys")
	seed := flag.Int64("seed", 1, "population seed (same seed = identical rollup)")
	duration := flag.Duration("duration", 30*time.Second, "per-member trace duration")
	scale := flag.String("scale", "small", "video dataset scale: small (one 8x8 video) or full (paper's 7 videos)")
	workers := flag.Int("workers", 0, "simulation workers (0 = GOMAXPROCS)")
	out := flag.String("out", "-", "file for the rollup summary JSON ('-' = stdout)")
	metricsOut := flag.String("metrics-out", "", "file to dump the pop_* metrics registry as JSON on exit")
	flag.Parse()

	keys := splitSchemes(*schemes)
	if len(keys) == 0 {
		log.Fatal("no schemes given")
	}

	model := popsim.DefaultModel(*seed)
	model.Duration = *duration

	reg := obs.NewRegistry()
	sw := popsim.Sweep{
		Videos:   videosFor(*scale),
		Schemes:  keys,
		Sessions: *sessions,
		Model:    model,
		Workers:  *workers,
		Obs:      reg,
	}
	rollup, st, err := popsim.Run(sw)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("%d sessions in %s (%.0f sessions/sec)",
		st.Sessions, st.Wall.Round(time.Millisecond), st.SessionsPerSec)

	if *metricsOut != "" {
		writeTo(*metricsOut, func(w io.Writer) error { return reg.WriteJSON(w) })
	}
	writeSummary(*out, rollup)
}

func videosFor(scale string) []*video.Manifest {
	switch scale {
	case "full":
		return video.Dataset(0)
	case "small":
		return []*video.Manifest{video.Generate(video.GenParams{
			ID: "pop1", Rows: 8, Cols: 8, NumChunks: 15,
			TargetQP42Mbps: 0.9, TargetQP22Mbps: 10.4, MotionLevel: 0.3, Seed: 101,
		})}
	default:
		log.Fatalf("unknown scale %q (want small or full)", scale)
		return nil
	}
}

func writeSummary(path string, r *popsim.Rollup) {
	writeTo(path, func(w io.Writer) error {
		b, err := r.SummaryJSON()
		if err != nil {
			return err
		}
		_, err = w.Write(append(b, '\n'))
		return err
	})
}

// writeTo writes through fn to path, with "-" meaning stdout.
func writeTo(path string, fn func(io.Writer) error) {
	if path == "-" {
		if err := fn(os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := fn(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", path)
}

func splitSchemes(s string) []string {
	var keys []string
	for _, k := range strings.Split(s, ",") {
		if k = strings.TrimSpace(k); k != "" {
			keys = append(keys, k)
		}
	}
	return keys
}
