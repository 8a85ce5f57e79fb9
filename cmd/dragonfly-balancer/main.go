// Command dragonfly-balancer fronts a fleet of dragonfly-server instances:
// it health-checks every backend with wire-protocol ping probes, routes
// each new session to the least-loaded healthy member (by the session
// count and queued bytes each probe's pong reports), and steers
// reconnecting clients away from dead or draining hosts — the client's
// resume bitmap rebuilds its session on the new server for free.
//
// Usage:
//
//	dragonfly-balancer -addr :7360 -backends 10.0.0.1:7361,10.0.0.2:7361
//
// Each backend is its streaming address alone; the older addr@admin form
// is refused, since the load it scraped now arrives on the probe.
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dragonfly/internal/balancer"
	"dragonfly/internal/obs"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7360", "listen address for client sessions")
	backends := flag.String("backends", "", "comma-separated backend streaming addresses")
	probeInterval := flag.Duration("probe-interval", balancer.DefaultProbeInterval, "health-check period per backend")
	probeTimeout := flag.Duration("probe-timeout", balancer.DefaultProbeTimeout, "per-probe dial+exchange deadline")
	failThreshold := flag.Int("fail-threshold", balancer.DefaultFailThreshold, "consecutive probe failures before a backend is unhealthy")
	dialTimeout := flag.Duration("dial-timeout", balancer.DefaultDialTimeout, "backend connect timeout when routing a session")
	spliceStallBudget := flag.Duration("splice-stall-budget", 0, "cumulative excess write-stall time per spliced session before a slowloris peer is severed (0 = off)")
	adminAddr := flag.String("admin", "", "admin HTTP listen address serving the balancer's own /metrics (empty = off)")
	flag.Parse()

	if *backends == "" {
		log.Fatal("at least one -backends entry is required")
	}
	var cfgs []balancer.BackendConfig
	for _, spec := range strings.Split(*backends, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		if strings.Contains(spec, "@") {
			log.Fatalf("backend %q: addr@admin is no longer accepted; give the streaming address alone (load arrives on the probe pong)", spec)
		}
		cfgs = append(cfgs, balancer.BackendConfig{Addr: spec})
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	reg := obs.NewRegistry()
	if *adminAddr != "" {
		if err := obs.ServeAdmin(ctx, *adminAddr, reg, log.Printf); err != nil {
			log.Fatalf("admin listener: %v", err)
		}
	}

	bl, err := balancer.New(balancer.Config{
		Backends:          cfgs,
		ProbeInterval:     *probeInterval,
		ProbeTimeout:      *probeTimeout,
		FailThreshold:     *failThreshold,
		DialTimeout:       *dialTimeout,
		SpliceStallBudget: *spliceStallBudget,
		Obs:               reg,
		Logf:              log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Periodic status line: one glance tells which members carry traffic.
	go func() {
		t := time.NewTicker(10 * time.Second)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				for _, st := range bl.Status() {
					log.Printf("backend %s healthy=%v draining=%v conns=%d routed=%d queue=%dB",
						st.Addr, st.Healthy, st.Draining, st.ActiveConns, st.Routed, st.QueueBytes)
				}
			}
		}
	}()
	if err := bl.ListenAndServe(ctx, *addr); err != nil && ctx.Err() == nil {
		log.Fatal(err)
	}
	log.Printf("signal: shutting down")
}
