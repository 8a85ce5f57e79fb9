package experiments

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dragonfly/internal/chaos"
	"dragonfly/internal/client"
	"dragonfly/internal/fleettest"
	"dragonfly/internal/ingest"
	"dragonfly/internal/netem"
	"dragonfly/internal/obs"
	"dragonfly/internal/player"
	"dragonfly/internal/server"
	"dragonfly/internal/trace"
	"dragonfly/internal/video"
)

// The chaos-soak scenario: 3 servers behind a balancer plus a full ingest
// tier, 6 clients, every registered failpoint site armed from one seeded
// schedule, and one server killed and cold-restarted mid-stream.
const (
	soakServers = 3
	soakClients = 6

	soakKillAt    = 600 * time.Millisecond  // kill server 1 abruptly
	soakRestartAt = 1200 * time.Millisecond // cold-restart it
)

// chaosSoakOutcome is the fleet-wide accounting of one soak. The safety
// assertions are exact: playback never stalls, every primary transmission
// beyond one per (client, chunk, tile) slot is explained by a detected
// payload corruption (a corrupt tile is dropped, never held, and its slot
// legitimately re-sent), and the snapshot tier quarantines the corrupt
// rollup a faulted writer left behind and recovers a healthy one.
type chaosSoakOutcome struct {
	Servers, Clients int
	Completed        int // sessions that rendered every frame untruncated
	Instances        int // server instances across restarts

	Totals          server.Counters
	ExcessPrimary   int64 // primary sends beyond one per slot
	CorruptDetected int64 // checksum-dropped tiles, summed over clients
	RebufferTotal   time.Duration
	Disconnects     int64
	Routed          int64

	InjectedTotal uint64 // faults injected across all sites
	InjectedSites int    // distinct sites that actually fired
	ArmedSites    int

	// Ingest-tier hardening under fire.
	PushRetries, PushDrops int64
	RollupSessions         int64 // client sessions in the live rollup
	ServerTraceSessions    int64 // server-view sessions folded by watchers
	WatchErrs              int64
	PollRetries, PollErrs  int64
	Quarantined            int64
	SnapshotSessions       int64
	SnapshotRecovered      bool
}

// soakRules is the all-tier schedule: every registered failpoint site is
// armed with a bounded fault budget. High-traffic sites (frame builds,
// batch writes, probes, splices, poll cycles) leave After/Every zero so
// chaos.Schedule(seed, …) places them deterministically but differently
// per seed; low-traffic sites (a handful of hits per run) pin Every:1 so
// their faults land on the first hits regardless of seed.
func soakRules() []chaos.Rule {
	return []chaos.Rule{
		// Seeded placement: these sites are hit hundreds of times per run.
		{Site: "server.accept", Kind: chaos.FaultError, Count: 2},
		{Site: "server.send.write", Kind: chaos.FaultError, Count: 1},
		{Site: "store.frame", Kind: chaos.FaultCorrupt, Count: 2},
		{Site: "balancer.dial", Kind: chaos.FaultError, Count: 2},
		{Site: "balancer.probe", Kind: chaos.FaultError, Count: 2},
		{Site: "balancer.splice", Kind: chaos.FaultError, Count: 1},
		{Site: "ingest.feedback.poll", Kind: chaos.FaultError, Count: 2},
		// Pinned placement: first hits fault, so a short run still proves
		// the recovery path.
		{Site: "server.trace.write", Kind: chaos.FaultError, Every: 1, Count: 1},
		{Site: "client.dial", Kind: chaos.FaultError, Every: 1, Count: 2},
		{Site: "ingest.watch.read", Kind: chaos.FaultError, Every: 1, Count: 2},
		{Site: "ingest.snapshot.write", Kind: chaos.FaultCorrupt, Every: 1, Count: 1},
		{Site: "ingest.push", Kind: chaos.FaultError, Every: 1, Count: 2},
		// Seeded, and last, so the rows above keep the placements
		// chaos.Schedule gives them by index.
		{Site: "netem.link.write", Kind: chaos.FaultError, Count: 1},
	}
}

// extChaosSoak runs the seeded all-tier failpoint soak: a balancer-fronted
// fleet, a live ingest tier (HTTP push, trace watchers, periodic snapshots,
// QoE feedback poller) and concurrent clients, with every registered
// failpoint armed from one seeded schedule and one server killed and
// cold-restarted mid-stream. The run must end with zero rebuffering, no
// unexplained duplicate primary sends, no corrupt tile held, all telemetry
// delivered through the retry paths, and the snapshot tier recovered from
// a corrupt rollup a faulted writer planted.
func extChaosSoak(w io.Writer, seed int64) (chaosSoakOutcome, error) {
	out := chaosSoakOutcome{Servers: soakServers, Clients: soakClients}

	rules := chaos.Schedule(seed, soakRules())
	out.ArmedSites = len(rules)
	if err := chaos.Arm(rules...); err != nil {
		return out, fmt.Errorf("arm schedule: %w", err)
	}
	defer chaos.Disarm()

	m := wireManifest("soak")

	snapDir, err := os.MkdirTemp("", "dragonfly-soak-snap-")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(snapDir)
	traceRoot, err := os.MkdirTemp("", "dragonfly-soak-traces-")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(traceRoot)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	t, err := startSoakTier(ctx, m, seed, snapDir, traceRoot)
	if err != nil {
		return out, err
	}
	defer t.fleet.Close()

	mets, err := t.soak(ctx, seed)
	if err != nil {
		return out, err
	}
	// Let the watchers fold the trailing server traces and the poller run
	// against the fully-populated rollup before tearing the tier down.
	time.Sleep(400 * time.Millisecond)
	cancel()
	t.loops.Wait() // the final snapshot lands after cancellation
	t.fleet.Close()

	t.account(&out, mets, m, snapDir)
	printChaosSoak(w, out, seed)
	return out, nil
}

// soakTier is the soak's stack: the ingest tier with its QoE feedback
// poller, snapshot loop and server-trace watchers, and the fleet whose
// members write those traces.
type soakTier struct {
	ing    *ingestTier
	fbReg  *obs.Registry
	srvAgg *ingest.Aggregator // folds the server-view traces; shares ing.reg, so the ing_* counters land in one place
	fleet  *fleettest.Fleet
	loops  sync.WaitGroup // the background loops, joined after their ctx is cancelled
}

// startSoakTier brings the stack up and starts its background loops.
func startSoakTier(ctx context.Context, m *video.Manifest, seed int64, snapDir, traceRoot string) (*soakTier, error) {
	ing, err := startIngest(ctx, seed)
	if err != nil {
		return nil, err
	}

	// Plant the crash state the snapshot quarantine exists to recover
	// from: the armed ingest.snapshot.write corrupt fault silently
	// bit-rots rollup.json while reporting success — exactly what a dying
	// writer (or rotting disk) leaves behind for the next process.
	planted := false
	for i := 0; i < 16 && !planted; i++ {
		if _, err := ing.agg.WriteSnapshot(snapDir); err != nil {
			return nil, fmt.Errorf("plant snapshot: %w", err)
		}
		planted = chaos.Injections("ingest.snapshot.write") > 0
	}
	if !planted {
		return nil, fmt.Errorf("snapshot corrupt fault never fired")
	}

	// The QoE feedback poller; its retry loop absorbs the armed
	// ingest.feedback.poll faults without ever steering on partial data.
	t := &soakTier{ing: ing, fbReg: obs.NewRegistry(), srvAgg: ingest.New(ingest.Config{Obs: ing.reg})}
	fb := ingest.NewFeedback(ingest.FeedbackConfig{
		URL:      ing.url + "/rollup",
		TargetDB: 50,
		Interval: 150 * time.Millisecond,
		MaxAge:   time.Minute,
		Obs:      t.fbReg,
		Seed:     seed,
	})

	// The fleet: each member writes server-view traces a watcher tails.
	link := constLink(16)
	t.fleet, err = fleettest.NewFleet(soakServers, m,
		func() (net.Conn, net.Conn) { return netem.Pipe(link) },
		func(addr string, s *server.Server) {
			wireServer(s)
			s.TraceDir = filepath.Join(traceRoot, addr)
			s.QoE = fb
		})
	if err != nil {
		return nil, err
	}

	background := func(run func(context.Context)) {
		t.loops.Add(1)
		go func() {
			defer t.loops.Done()
			run(ctx)
		}()
	}
	background(fb.Run)
	background(func(ctx context.Context) { ing.agg.RunSnapshots(ctx, snapDir, 150*time.Millisecond) })
	for _, b := range t.fleet.Backends {
		background(ingest.NewWatcher(t.srvAgg, filepath.Join(traceRoot, b.Addr), 100*time.Millisecond).Run)
	}
	return t, nil
}

// soak is the scenario: one abrupt kill and cold restart mid-stream, on
// top of the armed faults (resume under chaos), while the clients stream
// and push their traces — the armed ingest.push faults are absorbed by
// the pusher's retry budget.
func (t *soakTier) soak(ctx context.Context, seed int64) ([]*player.Metrics, error) {
	victim := t.fleet.Backends[1]
	killT := time.AfterFunc(soakKillAt, victim.Kill)
	restartT := time.AfterFunc(soakRestartAt, victim.Restart)
	defer killT.Stop()
	defer restartT.Stop()
	return playFleet(t.fleet, soakClients, "soak-user", seed, 16,
		func(dial client.DialFunc, head *trace.HeadTrace, rp client.ReconnectPolicy) (*player.Metrics, error) {
			return t.ing.play(ctx, dial, "soak", head, rp, "soak:fleet")
		})
}

// account reads the outcome off the quiesced stack.
func (t *soakTier) account(out *chaosSoakOutcome, mets []*player.Metrics, m *video.Manifest, snapDir string) {
	for _, met := range mets {
		if met.TotalFrames == m.NumFrames() && !met.Truncated {
			out.Completed++
		}
		out.CorruptDetected += met.CorruptTiles
		out.RebufferTotal += met.RebufferDuration
		out.Disconnects += int64(met.Disconnects)
	}
	out.Totals, out.Instances = t.fleet.Totals()
	out.ExcessPrimary = excessPrimary(out.Totals, soakClients, m)
	out.Routed = t.fleet.LB.Counter("lb_routed").Value()

	out.InjectedTotal = chaos.TotalInjections()
	for _, name := range chaos.SiteNames() {
		if chaos.Injections(name) > 0 {
			out.InjectedSites++
		}
	}

	out.PushRetries = t.ing.reg.Counter("ing_push_retries").Value()
	out.PushDrops = t.ing.reg.Counter("ing_push_drops").Value()
	out.WatchErrs = t.ing.reg.Counter("ing_watch_errs").Value()
	out.Quarantined = t.ing.reg.Counter("ing_quarantined").Value()
	out.PollRetries = t.fbReg.Counter("srv_qoe_poll_retries").Value()
	out.PollErrs = t.fbReg.Counter("srv_qoe_poll_errs").Value()
	for _, cr := range t.ing.agg.Rollup().Cohorts {
		out.RollupSessions += cr.Sessions
	}
	for _, cr := range t.srvAgg.Rollup().Cohorts {
		out.ServerTraceSessions += cr.Sessions
	}
	if snap, rerr := ingest.ReadSnapshot(snapDir); rerr == nil {
		out.SnapshotRecovered = true
		for _, cr := range snap.Cohorts {
			out.SnapshotSessions += cr.Sessions
		}
	}
}

func printChaosSoak(w io.Writer, out chaosSoakOutcome, seed int64) {
	fprintf(w, "== Extension: chaos-soak (all-tier failpoints + kill/restart under one seed) ==\n")
	fprintf(w, "%d servers, %d clients; %d failpoint sites armed (seed %d); kill@%s restart@%s.\n\n",
		soakServers, soakClients, out.ArmedSites, seed, soakKillAt, soakRestartAt)
	fprintf(w, "%-28s %10s\n", "metric", "value")
	fprintf(w, "%-28s %10d\n", "sessions completed", out.Completed)
	fprintf(w, "%-28s %10d\n", "server instances", out.Instances)
	fprintf(w, "%-28s %10d\n", "faults injected", out.InjectedTotal)
	fprintf(w, "%-28s %7d/%2d\n", "sites fired", out.InjectedSites, out.ArmedSites)
	fprintf(w, "%-28s %10d\n", "disconnects survived", out.Disconnects)
	fprintf(w, "%-28s %10d\n", "resumes", out.Totals.Resumes)
	fprintf(w, "%-28s %10d\n", "excess primary sends", out.ExcessPrimary)
	fprintf(w, "%-28s %10d\n", "corrupt tiles detected", out.CorruptDetected)
	fprintf(w, "%-28s %10s\n", "rebuffer total", out.RebufferTotal.Round(time.Millisecond).String())
	fprintf(w, "%-28s %10d\n", "push retries", out.PushRetries)
	fprintf(w, "%-28s %10d\n", "push drops", out.PushDrops)
	fprintf(w, "%-28s %10d\n", "rollup sessions", out.RollupSessions)
	fprintf(w, "%-28s %10d\n", "server traces folded", out.ServerTraceSessions)
	fprintf(w, "%-28s %10d\n", "watch errors absorbed", out.WatchErrs)
	fprintf(w, "%-28s %10d\n", "poll retries", out.PollRetries)
	fprintf(w, "%-28s %10d\n", "snapshots quarantined", out.Quarantined)
	fprintf(w, "%-28s %10v\n", "snapshot recovered", out.SnapshotRecovered)
}
