// Command dragonfly-server runs the tile server over TCP, optionally
// shaping each connection's downstream bandwidth with a trace file — the
// role Mahimahi plays in the paper's testbed.
//
// Usage:
//
//	dragonfly-server -addr :7360                   # serve the Table 3 dataset
//	dragonfly-server -addr :7360 -bw trace.csv     # shape downstream bandwidth
//	dragonfly-server -addr :7360 -faults f.csv     # arm fault rules (chaos.ReadRules)
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dragonfly/internal/chaos"
	"dragonfly/internal/ingest"
	"dragonfly/internal/netem"
	"dragonfly/internal/obs"
	"dragonfly/internal/server"
	"dragonfly/internal/trace"
	"dragonfly/internal/video"
)

func main() {
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], sigc, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the daemon: it prints the address it bound to stdout and serves
// until the second signal on sigs. The first drains: in-flight sessions
// finish while new connections get a retryable busy error.
func run(args []string, sigs <-chan os.Signal, stdout io.Writer) error {
	// Named flag, as in dragonfly-ingest, so the gates in scripts/ find it.
	flag := flag.NewFlagSet("dragonfly-server", flag.ExitOnError)
	addr := flag.String("addr", "127.0.0.1:7360", "listen address")
	bwFile := flag.String("bw", "", "bandwidth trace CSV to shape each connection (empty = unshaped)")
	chunks := flag.Int("chunks", 60, "chunks per generated video (60 = 1 minute)")
	faultFile := flag.String("faults", "", "fault rule CSV armed at startup, e.g. on the link's netem.link.write site (see EXPERIMENTS.md)")
	maxQueueBytes := flag.Int64("max-queue-bytes", 0, "per-session queued payload budget in bytes before shedding (0 = count bound only)")
	maxConns := flag.Int("max-conns", 0, "admission limit; extra connections are fast-rejected with a retryable busy error (0 = unlimited)")
	writeStallBudget := flag.Duration("write-stall-budget", 0, "cumulative excess write-stall time per session before a slowloris peer is killed (0 = off)")
	adminAddr := flag.String("admin", "", "admin HTTP listen address serving /metrics and /debug/pprof/ (empty = off)")
	traceDir := flag.String("trace-dir", "", "directory for server-view JSONL session traces for the ingest tier (empty = off)")
	qoeRollup := flag.String("qoe-rollup", "", "ingest /rollup URL to poll for per-cohort shed-budget scales (empty = off)")
	qoeTarget := flag.Float64("qoe-target", 40, "per-cohort viewport-quality budget in dB for the feedback loop")
	flag.Parse(args)

	if *chunks < 1 {
		return fmt.Errorf("-chunks %d: a video needs at least one chunk", *chunks)
	}
	for _, name := range []string{"max-queue-bytes", "max-conns", "write-stall-budget"} {
		if v := flag.Lookup(name).Value.String(); strings.HasPrefix(v, "-") {
			return fmt.Errorf("-%s %s: want 0 or more", name, v)
		}
	}
	if math.IsNaN(*qoeTarget) || math.IsInf(*qoeTarget, 0) {
		return fmt.Errorf("-qoe-target %v: want a finite quality in dB", *qoeTarget)
	}
	srv := server.New(video.Dataset(*chunks)...)
	srv.Logf = log.Printf
	// A client requests every decision interval (~100 ms), so 30 s of
	// silence is a dead peer, and a frame the link cannot take in 10 s is a
	// stalled one. The idle ping is server.Server's default.
	srv.ReadTimeout = 30 * time.Second
	srv.WriteTimeout = 10 * time.Second
	srv.MaxQueueBytes = *maxQueueBytes
	srv.MaxConns = *maxConns
	srv.WriteStallBudget = *writeStallBudget
	srv.TraceDir = *traceDir

	var link netem.Link
	if *bwFile != "" {
		f, err := os.Open(*bwFile)
		if err != nil {
			return fmt.Errorf("open bandwidth trace: %w", err)
		}
		tr, err := trace.ReadBandwidthCSV(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("parse bandwidth trace: %w", err)
		}
		link.Trace = tr
		fmt.Fprintf(stdout, "shaping downstream with %s (mean %.1f Mbps over %s)\n",
			tr.ID, tr.Mean(), tr.Duration().Round(time.Second))
	}
	if *faultFile != "" {
		f, err := os.Open(*faultFile)
		if err != nil {
			return fmt.Errorf("open fault rules: %w", err)
		}
		rules, err := chaos.ReadRules(f)
		f.Close()
		if err == nil {
			err = chaos.Arm(rules...)
		}
		if err != nil {
			return fmt.Errorf("fault rules: %w", err)
		}
		fmt.Fprintf(stdout, "armed %d fault rules\n", len(rules))
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if *qoeRollup != "" {
		fb := ingest.NewFeedback(ingest.FeedbackConfig{
			URL:      *qoeRollup,
			TargetDB: *qoeTarget,
			Obs:      srv.Obs,
		})
		srv.QoE = fb
		go fb.Run(ctx)
		log.Printf("QoE feedback: polling %s (target %.1f dB)", *qoeRollup, *qoeTarget)
	}
	if *adminAddr != "" {
		if err := obs.ServeAdmin(ctx, *adminAddr, srv.Obs, log.Printf); err != nil {
			return fmt.Errorf("admin listener: %w", err)
		}
	}
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	if *faultFile != "" || link.Trace != nil {
		l = netem.WrapListener(l, link)
	}
	go func() {
		<-sigs
		log.Printf("draining: %d active sessions, rejecting new connections (signal again to exit)",
			srv.ActiveConns())
		srv.Drain()
		<-sigs
		log.Printf("second signal: shutting down")
		cancel()
	}()
	fmt.Fprintf(stdout, "dragonfly server on %s serving %v\n", l.Addr(), srv.Videos())
	if err := srv.Serve(ctx, l); err != nil && ctx.Err() == nil {
		return err
	}
	return nil
}
