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
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dragonfly/internal/balancer"
	"dragonfly/internal/obs"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the daemon: it prints the address it bound to stdout and routes
// sessions until ctx is done. The probe and dial tuning is
// balancer.Config's zero value.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	// Named flag, as in dragonfly-ingest, so the gates in scripts/ find it.
	flag := flag.NewFlagSet("dragonfly-balancer", flag.ExitOnError)
	addr := flag.String("addr", "127.0.0.1:7360", "listen address for client sessions")
	backends := flag.String("backends", "", "comma-separated backend streaming addresses")
	spliceStallBudget := flag.Duration("splice-stall-budget", 0, "cumulative excess write-stall time per spliced session before a slowloris peer is severed (0 = off)")
	adminAddr := flag.String("admin", "", "admin HTTP listen address serving the balancer's own /metrics (empty = off)")
	flag.Parse(args)

	if *spliceStallBudget < 0 {
		return fmt.Errorf("-splice-stall-budget %v: want 0 or more", *spliceStallBudget)
	}
	var cfgs []balancer.BackendConfig
	for _, spec := range strings.Split(*backends, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		if strings.Contains(spec, "@") {
			return fmt.Errorf("backend %q: addr@admin is no longer accepted; give the streaming address alone (load arrives on the probe pong)", spec)
		}
		cfgs = append(cfgs, balancer.BackendConfig{Addr: spec})
	}
	if len(cfgs) == 0 {
		return fmt.Errorf("-backends %q: at least one backend address is required", *backends)
	}
	reg := obs.NewRegistry()
	bl, err := balancer.New(balancer.Config{
		Backends:          cfgs,
		SpliceStallBudget: *spliceStallBudget,
		Obs:               reg,
		Logf:              log.Printf,
	})
	if err != nil {
		return err
	}

	if *adminAddr != "" {
		if err := obs.ServeAdmin(ctx, *adminAddr, reg, log.Printf); err != nil {
			return fmt.Errorf("admin listener: %w", err)
		}
	}
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
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
	fmt.Fprintf(stdout, "dragonfly balancer on %s fronting %d backends\n", l.Addr(), len(cfgs))
	if err := bl.Serve(ctx, l); err != nil && ctx.Err() == nil {
		return err
	}
	log.Printf("shutting down")
	return nil
}
