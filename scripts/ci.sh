#!/bin/sh
# CI gate: formatting, vet, the doc-drift gates, the full test suite once
# under the race detector, a fuzz smoke, and a one-iteration benchmark smoke
# compared against the committed baseline. The chaos tests (internal/client,
# internal/server, internal/netem) exercise real goroutine-per-connection
# sessions with mid-stream disconnects, so -race here is load-bearing, not
# ceremony.
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

# The whole suite once, uncached, under the race detector. This is also the
# run that holds the seeded system gates — TestChaosSoak (every failpoint
# site armed over the fleet + ingest stack), TestFleetChaos (balancer +
# kill/cold-restart/drain, zero duplicate primary sends), TestQoEFeedback
# (ingest -> rollup -> shed-budget loop), TestExtChaos (corruption + cold
# restart + admission probe on one session) in internal/experiments, all
# four on the internal/fleettest rig, and the sweep determinism gates
# (popsim's TestWorkerCountInvariance, TestShardEquivalence and
# TestShardSubprocessEquivalence, and sim's TestSimWorkerCountInvariance):
# the run passes no -short, so none of them is skipped, and none is run a
# second time below.
go test -race -count=1 -timeout 600s ./...

# The benchmark is its own module, so ./... above neither builds nor tests
# it. Its TestRunsRepeatExactly is the only check of session_count_exact,
# which holds popsim to one scheme-factory call per session.
(cd bench && go vet ./... && go test -count=1 ./...)

# Disarmed-overhead gate: failpoints must stay free when nobody is
# injecting — a disarmed site is one atomic load and zero allocations on
# the hot path. Its own run because it is the one gate taken without the
# race detector's instrumentation, on the build that ships. (The benchdiff
# comparison below holds the timing side.)
go test -run '^TestDisarmedHitZeroAlloc$' -count=1 -timeout 60s ./internal/chaos

# Fuzz smoke: ten seconds per parser of bytes we did not write. The v3
# framing work (CRC trailers, hard length cap, resume bitmaps) lives or dies
# on the wire parsers rejecting hostile bytes without panicking or
# over-allocating; the trace-line decoder must agree with encoding/json on
# every input, and the fold must account for every line of any body. The two
# rollup parsers — the /rollup body on the feedback poll and a popsim shard
# report — must refuse what they refuse with their receiver unchanged. The
# manifest the client reads off the wire and the operator's fault script must
# come out of their parsers with every dimension and time field in range, and
# the two trace importers usable or refused. The manifest's hand codec must
# agree with encoding/json in both directions: the reader on any body, the
# writer on any float64. The last target is not a parser: the zero-run CRC
# operator every frame trailer and manifest checksum now comes from must
# agree with hash/crc32 over literal zeros for any prefix and length.
# Minimising a new input is capped at a second, so the ten seconds go on
# executing inputs (a shard report's seed is kilobytes of bins).
for target in proto:FuzzReadMessage proto:FuzzParseTileData proto:FuzzParseResume \
	obs:FuzzUnmarshalEvent ingest:FuzzFoldReader ingest:FuzzApplyRollup \
	popsim:FuzzMergeSnapshot video:FuzzReadManifest netem:FuzzReadFaultCSV \
	trace:FuzzReadHeadCSV trace:FuzzReadIntervalLog video:FuzzAppendManifestFloat \
	video:FuzzExtendZeros; do
	go test -run '^$' -fuzz "^${target#*:}\$" -fuzztime "${FUZZTIME:-10s}" -fuzzminimizetime 1s "./internal/${target%%:*}"
done

# Benchmark smoke: every benchmark must still run, and its timing is
# checked against BENCH_baseline.json with cmd/benchdiff. The list and its
# split are scripts/benchrun.sh, shared with scripts/bench.sh: one iteration
# for the expensive experiment sweeps, more for the microsecond-scale
# micro-benchmarks whose single iteration is all warm-up noise. -benchmem
# feeds benchdiff's allocation gate: a benchmark the baseline holds at 0
# allocs/op (Decide*, FlareDecide, Overlap*, TilesInCap, ScoreSlab/*,
# RenderFrame, UnmarshalEvent/canonical, FrameWritePreframed) that allocates
# fails even in warn mode.
raw=$(mktemp)
trap 'rm -f "$raw"' EXIT
sh scripts/benchrun.sh 1x "${BENCHTIME_MICRO:-50x}" | tee "$raw"
if [ "$strict" = 1 ]; then
	go run ./cmd/benchdiff -baseline BENCH_baseline.json -new "$raw"
else
	go run ./cmd/benchdiff -baseline BENCH_baseline.json -new "$raw" -warn
fi
