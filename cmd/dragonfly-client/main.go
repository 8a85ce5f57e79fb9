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
	"log"
	"net"
	"os"
	"strings"
	"time"

	"dragonfly/internal/client"
	"dragonfly/internal/obs"
	"dragonfly/internal/sim"
	"dragonfly/internal/trace"
	"dragonfly/internal/video"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7360", "server address, or a comma-separated list (balancer-free failover: sessions rotate across members with per-address backoff)")
	videoID := flag.String("video", "v1", "video ID to stream")
	schemeKey := flag.String("scheme", "dragonfly", "scheme: dragonfly, flare, pano, twotier, ...")
	motion := flag.String("motion", "medium", "synthetic user motion: low, medium, high")
	headFile := flag.String("head", "", "head-trace CSV to replay instead of a synthetic user")
	duration := flag.Duration("duration", time.Minute, "synthetic head-trace duration")
	seed := flag.Int64("seed", 1, "synthetic head-trace seed")
	dialTimeout := flag.Duration("dial-timeout", client.DefaultDialTimeout, "TCP connect timeout")
	reconnects := flag.Int("reconnect-attempts", 8, "redial budget per outage (0 = no fault tolerance)")
	readTimeout := flag.Duration("read-timeout", 5*time.Second, "idle read deadline; the server heartbeats, so a silent link this long is dead")
	writeTimeout := flag.Duration("write-timeout", 5*time.Second, "per-frame write deadline")
	traceFile := flag.String("trace", "", "write the session's event trace as JSONL to this file")
	cohort := flag.String("cohort", "", "fleet-rollup cohort label sent in the handshake (default \"<motion class>:net\")")
	flag.Parse()
	if *duration <= 0 {
		log.Fatalf("-duration %v: want a positive duration", *duration)
	}

	factory, ok := sim.Registry()[*schemeKey]
	if !ok {
		log.Fatalf("unknown scheme %q; known: see internal/sim.Registry", *schemeKey)
	}

	var head *trace.HeadTrace
	if *headFile != "" {
		f, err := os.Open(*headFile)
		if err != nil {
			log.Fatalf("open head trace: %v", err)
		}
		head, err = trace.ReadHeadCSV(f)
		f.Close()
		if err != nil {
			log.Fatalf("parse head trace: %v", err)
		}
	} else {
		class, err := trace.ParseMotionClass(*motion)
		if err != nil {
			log.Fatal(err)
		}
		head = trace.GenerateHead(trace.HeadGenParams{
			UserID: "cli-user", Class: class, Duration: *duration, Seed: *seed,
		})
	}

	addrs := strings.Split(*addr, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}
	var dial client.DialFunc
	if len(addrs) > 1 {
		md := &client.MultiDialer{Addrs: addrs, Timeout: *dialTimeout}
		dial = md.Dial
	} else {
		dial = func() (net.Conn, error) { return client.DialTimeout(addrs[0], *dialTimeout) }
	}

	var sessionTrace *obs.Trace
	if *traceFile != "" {
		sessionTrace = obs.NewTrace(0)
	}

	scheme := factory()
	log.Printf("streaming %s with %s from %s ...", *videoID, scheme.Name(), *addr)
	begin := time.Now()
	met, err := client.PlayResilient(dial, *videoID, head, scheme, client.PlayOptions{
		Reconnect: client.ReconnectPolicy{
			MaxAttempts:  *reconnects,
			ReadTimeout:  *readTimeout,
			WriteTimeout: *writeTimeout,
			Seed:         *seed,
		},
		Trace:  sessionTrace,
		Cohort: *cohort,
	})
	if err != nil {
		log.Fatal(err)
	}
	if sessionTrace != nil {
		if err := sessionTrace.WriteFile(*traceFile); err != nil {
			log.Fatalf("session trace: %v", err)
		}
		log.Printf("wrote %d events (%d dropped) to %s", sessionTrace.Len(), sessionTrace.Dropped(), *traceFile)
	}

	fmt.Printf("\nsession complete in %s\n", time.Since(begin).Round(time.Millisecond))
	fmt.Printf("  scheme            %s\n", met.SchemeName)
	fmt.Printf("  frames rendered   %d\n", met.TotalFrames)
	fmt.Printf("  median PSNR       %.2f dB (p10 %.2f, p90 %.2f)\n",
		met.MedianScore(), met.ScorePercentile(10), met.ScorePercentile(90))
	fmt.Printf("  startup delay     %s\n", met.StartupDelay.Round(time.Millisecond))
	fmt.Printf("  rebuffering       %.2f%% (%d stalls)\n", 100*met.RebufferRatio(), met.StallEvents)
	fmt.Printf("  incomplete frames %.2f%%\n", met.IncompleteFramePct())
	if met.Disconnects > 0 {
		fmt.Printf("  disconnects       %d (outage %s, %d tiles resumed)\n",
			met.Disconnects, met.OutageDuration.Round(time.Millisecond), met.ResumedTiles)
	}
	if met.CorruptFrames > 0 || met.CorruptTiles > 0 {
		fmt.Printf("  corruption        %d frames failed checksum, %d tiles dropped+refetched\n",
			met.CorruptFrames, met.CorruptTiles)
	}
	if met.BusyRejects > 0 {
		fmt.Printf("  busy rejects      %d (server at capacity; retried with backoff)\n", met.BusyRejects)
	}
	fmt.Printf("  bytes received    %.2f MB (wastage %.1f%%)\n",
		float64(met.BytesReceived)/1e6, met.WastagePct())
	fmt.Printf("  tile sources      ")
	for q := video.Quality(0); q < video.NumQualities; q++ {
		fmt.Printf("q%d(QP%d)=%.1f%% ", q, q.QP(), 100*met.QualityShare(q))
	}
	fmt.Printf("masked=%.1f%% blank=%.1f%%\n", 100*met.MaskingShare(), 100*met.BlankShare())
}
