#!/bin/sh
# CI gate: formatting, vet, the full test suite under the race detector,
# and a one-iteration benchmark smoke compared against the committed
# baseline. The chaos tests (internal/client, internal/server,
# internal/netem) exercise real goroutine-per-connection sessions with
# mid-stream disconnects, so -race here is load-bearing, not ceremony.
#
# Single-iteration timing is noisy, so the benchmark comparison only warns
# by default; pass -strict to make a regression fail the gate. An
# allocation-free benchmark that starts allocating fails it either way.
set -eu
cd "$(dirname "$0")/.."

strict=0
for arg in "$@"; do
	[ "$arg" = "-strict" ] && strict=1
done

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

go vet ./...

# Doc-drift gate: every metric name registered in the source must be
# documented in docs/OBSERVABILITY.md — the metric catalog is stable API,
# and an undocumented name is a contract change that slipped past review.
# Names ending in '_' are gauge families (srv_qoe_scale_<cohort>) and are
# checked as their documented "<name><" form.
metrics=$(grep -rhoE '\.(Counter|Gauge|Histogram)\("[a-z0-9_]+"' \
	--include='*.go' --exclude='*_test.go' internal cmd |
	sed -E 's/.*\("//; s/"$//' | sort -u)
drift=0
for m in $metrics; do
	case "$m" in
	*_) pat="\`${m}<" ;;
	*) pat="\`${m}\`" ;;
	esac
	if ! grep -qF "$pat" docs/OBSERVABILITY.md; then
		echo "metric '$m' registered in code but missing from docs/OBSERVABILITY.md" >&2
		drift=1
	fi
done
[ "$drift" = 0 ] || exit 1

# Failpoint doc-drift gate: every chaos site registered in the source must
# appear in the docs/RESILIENCE.md catalog — site names are stable API for
# fault schedules, and an undocumented one is an injection point nobody
# can find when a soak fails.
sites=$(grep -rhoE 'chaos\.NewSite\("[a-z0-9._]+"' \
	--include='*.go' --exclude='*_test.go' internal cmd |
	sed -E 's/.*\("//; s/"$//' | sort -u)
sdrift=0
for s in $sites; do
	if ! grep -qF "\`${s}\`" docs/RESILIENCE.md; then
		echo "failpoint site '$s' registered in code but missing from docs/RESILIENCE.md" >&2
		sdrift=1
	fi
done
[ "$sdrift" = 0 ] || exit 1

go test -race -timeout 600s ./...

# Chaos-soak gate: every registered failpoint site armed from one seeded
# schedule over the full fleet + ingest stack, run once more explicitly
# and uncached. Asserts zero rebuffering, no unexplained duplicate
# primary sends, no corrupt tile held, zero telemetry drops, and snapshot
# quarantine + recovery.
go test -race -run '^TestChaosSoak$' -count=1 -timeout 120s ./internal/experiments

# Disarmed-overhead gate: failpoints must stay free when nobody is
# injecting — a disarmed site is one atomic load and zero allocations on
# the hot path. (The benchdiff comparison below holds the timing side.)
go test -run '^TestDisarmedHitZeroAlloc$' -count=1 -timeout 60s ./internal/chaos

# Fleet-chaos gate: the balancer + kill/cold-restart/drain proof runs once
# more explicitly (and uncached) so a flake here is visible as its own
# line, not buried in the suite. The seeded run asserts zero duplicate
# primary sends fleet-wide and dead-member detection inside the probe
# budget.
go test -race -run '^TestFleetChaos$' -count=1 -timeout 120s ./internal/experiments

# QoE-feedback gate: the closed loop (trace ingest -> cohort rollup ->
# shed-budget feedback) proved once more explicitly and uncached. The
# seeded run asserts rollup quantiles within the documented envelope and
# strictly more shedding for the over-budget cohort.
go test -race -run '^TestQoEFeedback$' -count=1 -timeout 120s ./internal/experiments

# Population-determinism gate: the sweep engine's contract is that the
# same seed yields an identical merged rollup for any worker count and for
# any shard split — including real subprocess shards merged over the JSONL
# snapshot format. Seeded, uncached, under -race.
go test -race -run '^TestWorkerCountInvariance$|^TestShardEquivalence$|^TestShardSubprocessEquivalence$' \
	-count=1 -timeout 120s ./internal/popsim

# Fuzz smoke: ten seconds per parser of bytes we did not write. The v3
# framing work (CRC trailers, hard length cap, resume bitmaps) lives or dies
# on the wire parsers rejecting hostile bytes without panicking or
# over-allocating; the trace-line decoder must agree with encoding/json on
# every input, and the fold must account for every line of any body.
for target in proto:FuzzReadMessage proto:FuzzParseTileData proto:FuzzParseResume \
	obs:FuzzUnmarshalEvent ingest:FuzzFoldReader; do
	go test -run '^$' -fuzz "^${target#*:}\$" -fuzztime "${FUZZTIME:-10s}" "./internal/${target%%:*}"
done

# Benchmark smoke: every benchmark must still run, and its timing is
# checked against BENCH_baseline.json with cmd/benchdiff. The split
# mirrors scripts/bench.sh: one iteration for the expensive experiment
# sweeps, more for the microsecond-scale micro-benchmarks whose single
# iteration is all warm-up noise. -benchmem feeds benchdiff's allocation
# gate: a benchmark the baseline holds at 0 allocs/op (Decide*, FlareDecide,
# Overlap*, TilesInCap, UnmarshalEvent/canonical, FrameWritePreframed) that
# allocates fails even in warn mode.
raw=$(mktemp)
trap 'rm -f "$raw"' EXIT
go test -run '^$' -bench='Fig|Table|Tiling|Ext|ManyConn' -benchmem -benchtime=1x . | tee "$raw"
go test -run '^$' -bench='Decide|Overlap|TilesInCap' -benchmem -benchtime="${BENCHTIME_MICRO:-50x}" . | tee -a "$raw"
go test -run '^$' -bench='Frame' -benchmem -benchtime="${BENCHTIME_MICRO:-50x}" ./internal/proto | tee -a "$raw"
go test -run '^$' -bench='UnmarshalEvent' -benchmem -benchtime="${BENCHTIME_MICRO:-50x}" ./internal/obs | tee -a "$raw"
go test -run '^$' -bench='IngestFold' -benchmem -benchtime="${BENCHTIME_MICRO:-50x}" ./internal/ingest | tee -a "$raw"
go test -run '^$' -bench='PopulationSweep' -benchmem -benchtime=1x ./internal/popsim | tee -a "$raw"
if [ "$strict" = 1 ]; then
	go run ./cmd/benchdiff -baseline BENCH_baseline.json -new "$raw"
else
	go run ./cmd/benchdiff -baseline BENCH_baseline.json -new "$raw" -warn
fi
