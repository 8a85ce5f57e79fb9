// Command tracegen emits the synthetic datasets as files: head-motion
// traces, bandwidth traces (Belgian-4G-like or Irish-5G-like), and video
// manifests, in the CSV/JSON formats the other tools consume.
//
// Usage:
//
//	tracegen -kind head -motion high -seed 3 -out user3.csv
//	tracegen -kind bandwidth -profile belgian -seed 7 -out bw7.csv
//	tracegen -kind manifest -video v8 -out v8.json
//	tracegen -kind import -in belgian_log.txt -bytes -out bw.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"dragonfly/internal/trace"
	"dragonfly/internal/video"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run parses args and writes what they ask for to stdout, or to -out.
func run(args []string, stdout io.Writer) (err error) {
	// The set is named flag so that its definitions read, and the flag
	// gates in scripts/ find them, like every other command's.
	flag := flag.NewFlagSet("tracegen", flag.ExitOnError)
	kind := flag.String("kind", "head", "what to generate: head, bandwidth, manifest")
	out := flag.String("out", "", "output file (default stdout)")
	seed := flag.Int64("seed", 1, "generator seed")
	duration := flag.Duration("duration", time.Minute, "trace duration")

	motion := flag.String("motion", "medium", "head: motion class (low, medium, high)")
	profile := flag.String("profile", "belgian", "bandwidth: profile (belgian, irish)")
	filtered := flag.Bool("filtered", true, "bandwidth: apply the paper's filter and 28 Mbps cap")
	videoID := flag.String("video", "v1", "manifest: Table 3 video ID")

	inFile := flag.String("in", "", "import: raw throughput log to convert")
	tsCol := flag.Int("ts-col", 0, "import: timestamp column (epoch ms)")
	valCol := flag.Int("val-col", 1, "import: value column")
	asBytes := flag.Bool("bytes", false, "import: value column is bytes per interval (default: kbps)")
	comma := flag.Bool("comma", false, "import: comma-separated columns")
	flag.Parse(args)

	if *kind != "import" && *duration <= 0 {
		return fmt.Errorf("-duration %v: want a positive duration", *duration)
	}
	if *kind == "manifest" && (*duration < time.Second || *duration%time.Second != 0) {
		return fmt.Errorf("-duration %v: a manifest holds a whole number of 1 s chunks, at least one", *duration)
	}

	w := stdout
	if *out != "" {
		f, cerr := os.Create(*out)
		if cerr != nil {
			return cerr
		}
		defer func() {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
		w = f
	}

	switch *kind {
	case "head":
		class, err := trace.ParseMotionClass(*motion)
		if err != nil {
			return err
		}
		h := trace.GenerateHead(trace.HeadGenParams{
			UserID: fmt.Sprintf("gen-%d", *seed), Class: class, Duration: *duration, Seed: *seed,
		})
		return trace.WriteHeadCSV(w, h)

	case "bandwidth":
		p, err := trace.NetProfileByName(*profile)
		if err != nil {
			return err
		}
		tr := p.Generate(*seed, *duration)
		if *filtered {
			kept := trace.Filter([]*trace.BandwidthTrace{tr}, p.Filter)
			if len(kept) == 0 {
				return fmt.Errorf("seed %d does not survive the paper's filter; try another seed or -filtered=false", *seed)
			}
			tr = kept[0]
		}
		return trace.WriteBandwidthCSV(w, tr)

	case "manifest":
		entry, err := video.Table3Entry(*videoID)
		if err != nil {
			return err
		}
		_, err = entry.Manifest(int(duration.Seconds())).WriteTo(w)
		return err

	case "import":
		if *inFile == "" {
			return fmt.Errorf("import requires -in")
		}
		f, err := os.Open(*inFile)
		if err != nil {
			return err
		}
		tr, err := trace.ReadIntervalLog(f, trace.IntervalLogOptions{
			TimestampCol: *tsCol,
			ValueCol:     *valCol,
			ValueIsBytes: *asBytes,
			Comma:        *comma,
			ID:           *inFile,
		})
		f.Close()
		if err != nil {
			return err
		}
		return trace.WriteBandwidthCSV(w, tr)

	default:
		return fmt.Errorf("unknown kind %q", *kind)
	}
}
