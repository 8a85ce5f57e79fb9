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
	"log"
	"net"
	"os"
	"os/signal"
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
	addr := flag.String("addr", "127.0.0.1:7360", "listen address")
	bwFile := flag.String("bw", "", "bandwidth trace CSV to shape each connection (empty = unshaped)")
	latency := flag.Duration("latency", 0, "one-way propagation delay to add")
	chunks := flag.Int("chunks", 60, "chunks per generated video (60 = 1 minute)")
	faultFile := flag.String("faults", "", "fault rule CSV armed at startup, e.g. on the link's netem.link.write site (see EXPERIMENTS.md)")
	readTimeout := flag.Duration("read-timeout", 30*time.Second, "per-connection read deadline (0 = none)")
	writeTimeout := flag.Duration("write-timeout", 10*time.Second, "per-frame write deadline (0 = none)")
	heartbeat := flag.Duration("heartbeat", server.DefaultHeartbeat, "idle-link ping interval (negative = off)")
	maxQueue := flag.Int("max-queue", server.DefaultMaxQueue, "send-queue bound before slow-client shedding")
	maxQueueBytes := flag.Int64("max-queue-bytes", 0, "per-session queued payload budget in bytes before shedding (0 = count bound only)")
	maxConns := flag.Int("max-conns", 0, "admission limit; extra connections are fast-rejected with a retryable busy error (0 = unlimited)")
	writeStallBudget := flag.Duration("write-stall-budget", 0, "cumulative excess write-stall time per session before a slowloris peer is killed (0 = off)")
	adminAddr := flag.String("admin", "", "admin HTTP listen address serving /metrics and /debug/pprof/ (empty = off)")
	traceDir := flag.String("trace-dir", "", "directory for server-view JSONL session traces for the ingest tier (empty = off)")
	qoeRollup := flag.String("qoe-rollup", "", "ingest /rollup URL to poll for per-cohort shed-budget scales (empty = off)")
	qoePoll := flag.Duration("qoe-poll", 2*time.Second, "rollup poll interval; data older than 3x is treated as stale (neutral scales)")
	qoeTarget := flag.Float64("qoe-target", 40, "per-cohort viewport-quality budget in dB for the feedback loop")
	flag.Parse()

	var manifests []*video.Manifest
	for _, e := range video.Table3 {
		manifests = append(manifests, video.Generate(video.GenParams{
			ID:             e.ID,
			NumChunks:      *chunks,
			TargetQP42Mbps: e.QP42Mbps,
			TargetQP22Mbps: e.QP22Mbps,
			MotionLevel:    e.MotionLevel,
			Seed:           e.Seed,
		}))
	}
	srv := server.New(manifests...)
	srv.Logf = log.Printf
	srv.ReadTimeout = *readTimeout
	srv.WriteTimeout = *writeTimeout
	srv.Heartbeat = *heartbeat
	srv.MaxQueue = *maxQueue
	srv.MaxQueueBytes = *maxQueueBytes
	srv.MaxConns = *maxConns
	srv.WriteStallBudget = *writeStallBudget
	srv.TraceDir = *traceDir

	var link netem.Link
	if *bwFile != "" {
		f, err := os.Open(*bwFile)
		if err != nil {
			log.Fatalf("open bandwidth trace: %v", err)
		}
		tr, err := trace.ReadBandwidthCSV(f)
		f.Close()
		if err != nil {
			log.Fatalf("parse bandwidth trace: %v", err)
		}
		link.Trace = tr
		fmt.Printf("shaping downstream with %s (mean %.1f Mbps over %s)\n",
			tr.ID, tr.Mean(), tr.Duration().Round(time.Second))
	}
	link.Latency = *latency

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	var listener net.Listener = l
	if *faultFile != "" {
		f, err := os.Open(*faultFile)
		if err != nil {
			log.Fatalf("open fault rules: %v", err)
		}
		rules, err := chaos.ReadRules(f)
		f.Close()
		if err == nil {
			err = chaos.Arm(rules...)
		}
		if err != nil {
			log.Fatalf("fault rules: %v", err)
		}
		fmt.Printf("armed %d fault rules\n", len(rules))
	}
	if *faultFile != "" || link.Trace != nil || link.Latency > 0 {
		listener = netem.WrapListener(l, link)
	}

	// First signal drains: in-flight sessions finish while new connections
	// are fast-rejected with a retryable busy error. A second signal exits.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		log.Printf("draining: %d active sessions, rejecting new connections (signal again to exit)",
			srv.ActiveConns())
		srv.Drain()
		<-sigc
		log.Printf("second signal: shutting down")
		cancel()
	}()
	if *qoeRollup != "" {
		fb := ingest.NewFeedback(ingest.FeedbackConfig{
			URL:      *qoeRollup,
			Interval: *qoePoll,
			TargetDB: *qoeTarget,
			Obs:      srv.Obs,
		})
		srv.QoE = fb
		go fb.Run(ctx)
		log.Printf("QoE feedback: polling %s every %s (target %.1f dB)", *qoeRollup, *qoePoll, *qoeTarget)
	}
	if *adminAddr != "" {
		adminListen, adminErr, err := obs.ServeAdmin(ctx, *adminAddr, srv.Obs)
		if err != nil {
			log.Fatalf("admin listener: %v", err)
		}
		go func() {
			if err := <-adminErr; err != nil {
				log.Printf("admin listener: %v", err)
			}
		}()
		log.Printf("admin endpoint on http://%s (/metrics, /debug/pprof/)", adminListen)
	}
	log.Printf("dragonfly server on %s serving %v", l.Addr(), srv.Videos())
	if err := srv.Serve(ctx, listener); err != nil && ctx.Err() == nil {
		log.Fatal(err)
	}
}
