// Command dragonfly-ingest runs the fleet QoE aggregation tier: it tails
// JSONL session traces (directory watch and/or HTTP push), folds them into
// per-cohort quantile sketches, and serves the /rollup endpoint the tile
// servers' QoE feedback loop polls. See docs/OBSERVABILITY.md for the
// trace schema and rollup format.
//
// Usage:
//
//	dragonfly-ingest -addr :9360 -watch /var/traces      # tail a trace dir
//	dragonfly-ingest -addr :9360 -snapshot-dir /var/qoe  # periodic rollup.json
//	curl -s localhost:9360/rollup                        # read the rollup
//	curl -s --data-binary @session.jsonl localhost:9360/ingest
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dragonfly/internal/ingest"
	"dragonfly/internal/obs"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9360", "HTTP listen address (/ingest, /rollup, /healthz)")
	watchDir := flag.String("watch", "", "directory of *.jsonl traces to tail (empty = push only)")
	watchInterval := flag.Duration("watch-interval", ingest.DefaultWatchInterval, "trace directory rescan period")
	snapshotDir := flag.String("snapshot-dir", "", "directory for periodic rollup.json snapshots (empty = off)")
	snapshotInterval := flag.Duration("snapshot-interval", 5*time.Second, "snapshot write period")
	adminAddr := flag.String("admin", "", "admin HTTP listen address serving /metrics and /debug/pprof/ (empty = off)")
	flag.Parse()

	reg := obs.NewRegistry()
	agg := ingest.New(ingest.Config{Obs: reg, Logf: log.Printf})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		log.Printf("shutting down")
		cancel()
	}()

	if *adminAddr != "" {
		adminListen, adminErr, err := obs.ServeAdmin(ctx, *adminAddr, reg)
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

	if *watchDir != "" {
		w := ingest.NewWatcher(agg, *watchDir, *watchInterval)
		go w.Run(ctx)
		log.Printf("tailing %s every %s", *watchDir, *watchInterval)
	}
	if *snapshotDir != "" {
		go agg.RunSnapshots(ctx, *snapshotDir, *snapshotInterval)
		log.Printf("snapshotting rollup to %s every %s", *snapshotDir, *snapshotInterval)
	}

	listen, done, err := agg.Serve(ctx, *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("dragonfly ingest on http://%s (/ingest, /rollup)", listen)
	if err := <-done; err != nil && ctx.Err() == nil {
		log.Fatal(err)
	}
}
