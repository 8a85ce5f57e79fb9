package experiments

import (
	"io"
	"time"

	"dragonfly/internal/client"
	"dragonfly/internal/core"
	"dragonfly/internal/fleettest"
	"dragonfly/internal/player"
	"dragonfly/internal/server"
	"dragonfly/internal/trace"
)

// The fleet-chaos scenario: 3 servers, 8 concurrent clients, one server
// killed and cold-restarted, a second drained, a third killed once the
// restart is back — all mid-stream, at fixed offsets from the start.
const (
	fleetServers = 3
	fleetClients = 8

	fleetKillAt     = 600 * time.Millisecond  // kill server 1 abruptly
	fleetDrainAt    = time.Second             // drain server 2 gracefully
	fleetRestartAt  = 1400 * time.Millisecond // cold-restart server 1
	fleetKill2At    = 1900 * time.Millisecond // kill server 0, forcing failover onto the restarted instance
	fleetRestart2At = fleetKill2At + 500*time.Millisecond
)

// fleetChaosOutcome is the fleet-wide accounting of one run.
type fleetChaosOutcome struct {
	Servers, Clients int
	Completed        int // sessions that rendered every frame untruncated
	Instances        int // server instances across all restarts

	// Totals sums send accounting over every instance of every backend.
	// ExcessPrimary is the fleet-wide duplicate-send figure: primary
	// transmissions beyond one per (client, chunk, tile) slot. The resume
	// bitmap is the only session state that survives a host death, so any
	// excess means failover re-sent tiles a client already held.
	Totals        server.Counters
	ExcessPrimary int64

	CorruptTiles  int64         // corrupt tiles rendered, summed over clients
	RebufferTotal time.Duration // post-startup stall time, summed over clients
	Disconnects   int64         // mid-stream link losses survived
	BusyRetries   int64         // busy rejections absorbed with backoff
	Routed        int64         // sessions the balancer spliced to a backend

	// UnhealthyAfter is how long the balancer took to mark the first
	// killed server unhealthy; the experiment fails if it exceeds
	// ProbeBudget. Recovered reports the restarted server was routable
	// again by the end of the run.
	UnhealthyAfter time.Duration
	ProbeBudget    time.Duration
	Recovered      bool
}

// extFleetChaos runs the fleet-mode chaos proof: a balancer fronting three
// servers, eight concurrent clients streaming (half through the balancer,
// half on static multi-address failover) while one server is killed and
// cold-restarted, a second is drained mid-stream, and a third is killed
// once the restarted one is back — asserting zero duplicate primary sends
// summed fleet-wide, zero corrupt tiles, zero rebuffering, and dead-member
// detection within the probe budget.
func extFleetChaos(w io.Writer, seed int64) (fleetChaosOutcome, error) {
	out := fleetChaosOutcome{Servers: fleetServers, Clients: fleetClients}
	out.ProbeBudget = fleettest.FailThreshold*(fleettest.ProbeInterval+fleettest.ProbeTimeout) + 150*time.Millisecond

	m := wireManifest("fleet")
	link := constLink(16)
	f, err := fleettest.NewFleet(fleetServers, m, link, func(_ string, s *server.Server) { wireServer(s) })
	if err != nil {
		return out, err
	}
	defer f.Close()

	// Fault schedule. The second kill lands after the first victim's cold
	// restart, so its survivors must resume onto an instance that has no
	// memory of them — the resume bitmap is the proof.
	victim, second, drained := f.Backends[1], f.Backends[0], f.Backends[2]
	unhealthy := make(chan time.Duration, 1) // at most one send
	timers := []*time.Timer{
		time.AfterFunc(fleetKillAt, func() {
			start := time.Now()
			victim.Kill()
			if awaitHealth(f, 5*time.Second, map[string]bool{victim.Addr: false}) {
				unhealthy <- time.Since(start)
			}
		}),
		time.AfterFunc(fleetDrainAt, drained.Drain),
		time.AfterFunc(fleetRestartAt, victim.Restart),
		time.AfterFunc(fleetKill2At, second.Kill),
		time.AfterFunc(fleetRestart2At, second.Restart),
	}
	defer func() {
		for _, t := range timers {
			t.Stop()
		}
	}()

	mets, err := playFleet(f, fleetClients, "fleet-user", seed, 12,
		func(dial client.DialFunc, head *trace.HeadTrace, rp client.ReconnectPolicy) (*player.Metrics, error) {
			return client.PlayResilient(dial, "fleet", head, core.NewDefault(), client.PlayOptions{Reconnect: rp})
		})
	if err != nil {
		return out, err
	}

	// The restarted victims must be routable again.
	out.Recovered = awaitHealth(f, 2*time.Second, map[string]bool{victim.Addr: true, second.Addr: true})
	select {
	case out.UnhealthyAfter = <-unhealthy:
	default: // never detected: UnhealthyAfter stays 0
	}
	f.Close() // quiesce the fleet before reading its totals

	for _, met := range mets {
		if met.TotalFrames == m.NumFrames() && !met.Truncated {
			out.Completed++
		}
		out.CorruptTiles += met.CorruptTiles
		out.RebufferTotal += met.RebufferDuration
		out.Disconnects += int64(met.Disconnects)
		out.BusyRetries += met.BusyRejects
	}
	out.Totals, out.Instances = f.Totals()
	out.ExcessPrimary = excessPrimary(out.Totals, fleetClients, m)
	out.Routed = f.LB.Counter("lb_routed").Value()
	printFleetChaos(w, out)
	return out, nil
}

func printFleetChaos(w io.Writer, out fleetChaosOutcome) {
	fprintf(w, "== Extension: fleet-chaos (balancer + kill/restart/drain across a fleet) ==\n")
	fprintf(w, "%d servers, %d clients (half via balancer, half static multi-address);\n", fleetServers, fleetClients)
	fprintf(w, "kill@%s drain@%s restart@%s kill2@%s.\n\n",
		fleetKillAt, fleetDrainAt, fleetRestartAt, fleetKill2At)
	fprintf(w, "%-26s %10s\n", "metric", "value")
	fprintf(w, "%-26s %10d\n", "sessions completed", out.Completed)
	fprintf(w, "%-26s %10d\n", "server instances", out.Instances)
	fprintf(w, "%-26s %10d\n", "balancer-routed sessions", out.Routed)
	fprintf(w, "%-26s %10d\n", "disconnects survived", out.Disconnects)
	fprintf(w, "%-26s %10d\n", "resumes", out.Totals.Resumes)
	fprintf(w, "%-26s %10d\n", "dedup entries restored", out.Totals.ResumedItems)
	fprintf(w, "%-26s %10d\n", "busy retries", out.BusyRetries)
	fprintf(w, "%-26s %10d\n", "excess primary sends", out.ExcessPrimary)
	fprintf(w, "%-26s %10d\n", "corrupt tiles rendered", out.CorruptTiles)
	fprintf(w, "%-26s %10s\n", "rebuffer total", out.RebufferTotal.Round(time.Millisecond).String())
	fprintf(w, "%-26s %10s\n", "unhealthy detected in", out.UnhealthyAfter.Round(time.Millisecond).String())
	fprintf(w, "%-26s %10s\n", "probe budget", out.ProbeBudget.Round(time.Millisecond).String())
	fprintf(w, "%-26s %10v\n", "killed members recovered", out.Recovered)
}
