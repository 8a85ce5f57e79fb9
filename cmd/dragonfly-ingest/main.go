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
	"fmt"
	"log"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"dragonfly/internal/ingest"
	"dragonfly/internal/obs"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// run is the daemon: it serves the ingest tier until ctx is done and
// returns once the final snapshot is on disk.
func run(ctx context.Context, args []string) error {
	// The set is named flag so that its definitions read, and the flag
	// gates in scripts/ find them, like every other command's.
	flag := flag.NewFlagSet("dragonfly-ingest", flag.ExitOnError)
	addr := flag.String("addr", "127.0.0.1:9360", "HTTP listen address (/ingest, /rollup, /healthz)")
	watchDir := flag.String("watch", "", "directory of *.jsonl traces to tail (empty = push only)")
	watchInterval := flag.Duration("watch-interval", ingest.DefaultWatchInterval, "trace directory rescan period")
	snapshotDir := flag.String("snapshot-dir", "", "directory for periodic rollup.json snapshots (empty = off)")
	snapshotInterval := flag.Duration("snapshot-interval", 5*time.Second, "snapshot write period")
	adminAddr := flag.String("admin", "", "admin HTTP listen address serving /metrics and /debug/pprof/ (empty = off)")
	flag.Parse(args)

	reg := obs.NewRegistry()
	agg := ingest.New(ingest.Config{Obs: reg, Logf: log.Printf})
	if *adminAddr != "" {
		if err := obs.ServeAdmin(ctx, *adminAddr, reg, log.Printf); err != nil {
			return fmt.Errorf("admin listener: %w", err)
		}
	}
	listen, done, err := agg.Serve(ctx, *addr)
	if err != nil {
		return err
	}

	// The snapshots end after the watcher's final scan rather than with
	// ctx, so the final rollup.json holds every line the watcher read.
	snapCtx := ctx
	if *watchDir != "" {
		w := ingest.NewWatcher(agg, *watchDir, *watchInterval)
		var watched context.CancelFunc
		snapCtx, watched = context.WithCancel(context.WithoutCancel(ctx))
		go func() {
			w.Run(ctx)
			watched()
		}()
		log.Printf("tailing %s every %s", *watchDir, *watchInterval)
	}
	var snapping sync.WaitGroup
	if *snapshotDir != "" {
		snapping.Add(1)
		go func() {
			defer snapping.Done()
			agg.RunSnapshots(snapCtx, *snapshotDir, *snapshotInterval)
		}()
		log.Printf("snapshotting rollup to %s every %s", *snapshotDir, *snapshotInterval)
	}

	log.Printf("dragonfly ingest on http://%s (/ingest, /rollup)", listen)
	if err := <-done; err != nil && ctx.Err() == nil {
		return err
	}
	log.Printf("shutting down")
	snapping.Wait()
	return nil
}
