// Command dragonfly-client streams a video from a dragonfly-server with any
// of the implemented schemes, replaying a (synthetic or recorded) head
// trace in real time, and prints the session's quality metrics.
//
// Usage:
//
//	dragonfly-client -addr 127.0.0.1:7360 -video v8 -scheme dragonfly
//	dragonfly-client -video v1 -scheme flare -motion high -duration 30s
//	dragonfly-client -video v1 -head trace.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"
	"unicode"

	"dragonfly/internal/client"
	"dragonfly/internal/obs"
	"dragonfly/internal/sim"
	"dragonfly/internal/trace"
	"dragonfly/internal/video"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the client: it streams one session and prints its metrics to
// stdout.
func run(args []string, stdout io.Writer) error {
	// Named flag, as in dragonfly-ingest, so the gates in scripts/ find it.
	flag := flag.NewFlagSet("dragonfly-client", flag.ExitOnError)
	addr := flag.String("addr", "127.0.0.1:7360", "server address, or a comma-separated list (balancer-free failover: sessions rotate across members with per-address backoff)")
	videoID := flag.String("video", "v1", "video ID to stream")
	schemeKey := flag.String("scheme", "dragonfly", "scheme: dragonfly, flare, pano, twotier, ...")
	motion := flag.String("motion", "medium", "synthetic user motion: low, medium, high")
	headFile := flag.String("head", "", "head-trace CSV to replay instead of a synthetic user")
	duration := flag.Duration("duration", time.Minute, "synthetic head-trace duration")
	seed := flag.Int64("seed", 1, "synthetic head-trace seed")
	reconnects := flag.Int("reconnect-attempts", 8, "redial budget per outage (0 = no fault tolerance)")
	readTimeout := flag.Duration("read-timeout", 5*time.Second, "idle read deadline; the server heartbeats, so a silent link this long is dead")
	traceFile := flag.String("trace", "", "write the session's event trace as JSONL to this file")
	cohort := flag.String("cohort", "", "fleet-rollup cohort label sent in the handshake (default \"<motion class>:net\")")
	flag.Parse(args)
	if *duration <= 0 {
		return fmt.Errorf("-duration %v: want a positive duration", *duration)
	}
	// Commas and spaces separate entries; empty ones are skipped, as
	// dragonfly-balancer -backends skips them.
	addrs := strings.FieldsFunc(*addr, func(r rune) bool { return r == ',' || unicode.IsSpace(r) })
	if len(addrs) == 0 {
		return fmt.Errorf("-addr %q: no server address", *addr)
	}

	factory, ok := sim.Registry()[*schemeKey]
	if !ok {
		return fmt.Errorf("unknown scheme %q; known: see internal/sim.Registry", *schemeKey)
	}

	var head *trace.HeadTrace
	if *headFile != "" {
		f, err := os.Open(*headFile)
		if err != nil {
			return fmt.Errorf("open head trace: %w", err)
		}
		head, err = trace.ReadHeadCSV(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("parse head trace: %w", err)
		}
	} else {
		class, err := trace.ParseMotionClass(*motion)
		if err != nil {
			return err
		}
		head = trace.GenerateHead(trace.HeadGenParams{
			UserID: "cli-user", Class: class, Duration: *duration, Seed: *seed,
		})
	}

	dialer := &client.MultiDialer{Addrs: addrs}
	var sessionTrace *obs.Trace
	if *traceFile != "" {
		sessionTrace = obs.NewTrace(0)
	}

	scheme := factory()
	log.Printf("streaming %s with %s from %s ...", *videoID, scheme.Name(), strings.Join(addrs, ","))
	begin := time.Now()
	met, err := client.PlayResilient(dialer.Dial, *videoID, head, scheme, client.PlayOptions{
		Reconnect: client.ReconnectPolicy{
			MaxAttempts:  *reconnects,
			ReadTimeout:  *readTimeout,
			WriteTimeout: 5 * time.Second,
			Seed:         *seed,
		},
		Trace:  sessionTrace,
		Cohort: *cohort,
	})
	if err != nil {
		return err
	}
	if sessionTrace != nil {
		if err := sessionTrace.WriteFile(*traceFile); err != nil {
			return fmt.Errorf("session trace: %w", err)
		}
		log.Printf("wrote %d events (%d dropped) to %s", sessionTrace.Len(), sessionTrace.Dropped(), *traceFile)
	}

	fmt.Fprintf(stdout, "\nsession complete in %s\n", time.Since(begin).Round(time.Millisecond))
	fmt.Fprintf(stdout, "  scheme            %s\n", met.SchemeName)
	fmt.Fprintf(stdout, "  frames rendered   %d\n", met.TotalFrames)
	fmt.Fprintf(stdout, "  median PSNR       %.2f dB (p10 %.2f, p90 %.2f)\n",
		met.MedianScore(), met.ScorePercentile(10), met.ScorePercentile(90))
	fmt.Fprintf(stdout, "  startup delay     %s\n", met.StartupDelay.Round(time.Millisecond))
	fmt.Fprintf(stdout, "  rebuffering       %.2f%% (%d stalls)\n", 100*met.RebufferRatio(), met.StallEvents)
	fmt.Fprintf(stdout, "  incomplete frames %.2f%%\n", met.IncompleteFramePct())
	if met.Disconnects > 0 {
		fmt.Fprintf(stdout, "  disconnects       %d (outage %s, %d tiles resumed)\n",
			met.Disconnects, met.OutageDuration.Round(time.Millisecond), met.ResumedTiles)
	}
	if met.CorruptFrames > 0 || met.CorruptTiles > 0 {
		fmt.Fprintf(stdout, "  corruption        %d frames failed checksum, %d tiles dropped+refetched\n",
			met.CorruptFrames, met.CorruptTiles)
	}
	if met.BusyRejects > 0 {
		fmt.Fprintf(stdout, "  busy rejects      %d (server at capacity; retried with backoff)\n", met.BusyRejects)
	}
	fmt.Fprintf(stdout, "  bytes received    %.2f MB (wastage %.1f%%)\n",
		float64(met.BytesReceived)/1e6, met.WastagePct())
	fmt.Fprintf(stdout, "  tile sources      ")
	for q := video.Quality(0); q < video.NumQualities; q++ {
		fmt.Fprintf(stdout, "q%d(QP%d)=%.1f%% ", q, q.QP(), 100*met.QualityShare(q))
	}
	fmt.Fprintf(stdout, "masked=%.1f%% blank=%.1f%%\n", 100*met.MaskingShare(), 100*met.BlankShare())
	return nil
}
