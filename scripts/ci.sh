#!/bin/sh
# CI gate: formatting, vet, the doc-drift gates, the settings and export
# ratchets, the full test suite once under the race detector, a fuzz smoke,
# and a one-iteration benchmark smoke compared against the committed
# baseline.
# The chaos tests (internal/client, internal/server, internal/netem)
# exercise real goroutine-per-connection sessions with mid-stream
# disconnects, so -race here is load-bearing, not ceremony.
#
# Single-iteration timing is noisy, so the benchmark comparison only warns
# on ns/op and B/op by default; pass -strict to make those fail the gate.
# Allocation counts repeat, so allocs/op outside the baseline's band fails
# it either way (cmd/benchdiff).
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

# The fuzz smoke's targets, as package:Target (the smoke itself runs below).
fuzz_targets="proto:FuzzReadMessage proto:FuzzParseTileData proto:FuzzParseResume
	obs:FuzzUnmarshalEvent ingest:FuzzFoldReader ingest:FuzzApplyRollup
	video:FuzzReadManifest chaos:FuzzReadRules
	trace:FuzzReadHeadCSV trace:FuzzReadIntervalLog trace:FuzzReadBandwidthCSV video:FuzzAppendManifestFloat
	video:FuzzExtendZeros geom:FuzzCapWalk geom:FuzzRoIPlane player:FuzzSendQueue"

# Fuzz drift gate: every fuzz target under internal/ must be in the fuzz
# smoke's list and named in docs/RESILIENCE.md, so a new one is neither left
# out of CI nor missing from the list of what CI fuzzes.
fdrift=0
for f in $(grep -rl --include='*_test.go' '^func Fuzz' internal); do
	pkg=${f#internal/}
	pkg=${pkg%%/*}
	for fn in $(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' "$f"); do
		case " $(echo $fuzz_targets) " in
		*" $pkg:$fn "*) ;;
		*)
			echo "fuzz target $pkg:$fn missing from the fuzz smoke in scripts/ci.sh" >&2
			fdrift=1
			;;
		esac
		if ! grep -qF "\`${fn}\`" docs/RESILIENCE.md; then
			echo "fuzz target $pkg:$fn missing from docs/RESILIENCE.md" >&2
			fdrift=1
		fi
	done
done
[ "$fdrift" = 0 ] || exit 1

# Experiment-index drift gate: DESIGN.md §4 is how a reader finds the code
# behind a figure. Every `experiments.<Name>` the reference documents cite
# must be a function internal/experiments declares, and every registry ID
# outside the paper's figures and tables (fig*, table*, tiling) must have a
# row in DESIGN.md's extension table.
eprod=$(ls internal/experiments/*.go | grep -v '_test\.go$')
edrift=0
for n in $(grep -ohE 'experiments\.[A-Z][A-Za-z0-9_]*' README.md DESIGN.md EXPERIMENTS.md docs/*.md |
	sed 's/^experiments\.//' | sort -u); do
	if ! grep -qE "^func ${n}[[(]" $eprod; then
		echo "docs cite experiments.$n, which internal/experiments does not declare" >&2
		edrift=1
	fi
done
for id in $(sed -n 's/.*{ID: "\([^"]*\)".*/\1/p' internal/experiments/registry.go); do
	case "$id" in
	fig* | table* | tiling) continue ;;
	esac
	if ! grep -qF "| $id |" DESIGN.md; then
		echo "experiment '$id' is missing from DESIGN.md's extension table" >&2
		edrift=1
	fi
done
[ "$edrift" = 0 ] || exit 1

# Flag drift gate: a command line the reference documents or a command's
# usage comment shows is one a reader pastes. Every -flag after an
# invocation of a command under cmd/ (`go run ./cmd/<c>`, a binary path
# ending in /<c>, or a bare <c>) must be a flag cmd/<c> defines. An
# invocation runs to the end of its line, backslash-continued lines joined,
# or to the first | & ; # < > ) or closing backtick. `go build`, `go test`
# and `go vet` of a ./cmd path are not invocations.
cmds=$(ls cmd)
flagdefs=$(for c in $cmds; do
	grep -ohE 'flag\.[A-Za-z0-9]+\((&[A-Za-z0-9_.]+, *)?"[a-z0-9-]+"' $(ls cmd/$c/*.go | grep -v '_test\.go$') |
		grep -v '^flag\.NewFlagSet(' |
		sed -E "s/.*\"([a-z0-9-]+)\"\$/$c:\1/"
done)
awk -v cmds="$cmds" -v defs="$flagdefs" '
	function check(s, where, i, c, rest, pre, k, nt, toks, tok, f) {
		for (i = 1; i <= ncmd; i++) {
			c = cmd[i]
			rest = s
			while (match(rest, "(^|[ \t`(/])" c "[ \t]")) {
				pre = substr(rest, 1, RSTART)
				rest = substr(rest, RSTART + RLENGTH)
				if (pre ~ /go[ \t]+(build|test|vet)[^&|;`]*$/)
					continue
				nt = split(rest, toks, /[ \t]+/)
				for (k = 1; k <= nt; k++) {
					tok = toks[k]
					if (tok ~ /^[|&;#<>)`]/)
						break
					if (tok ~ /^--?[a-z]/) {
						f = tok
						sub(/^--?/, "", f)
						sub(/[^a-z0-9-].*$/, "", f)
						if (!((c ":" f) in def)) {
							print where ": cmd/" c " defines no -" f > "/dev/stderr"
							bad = 1
						}
					}
					if (tok ~ /[|&;<>)`]/)
						break
				}
			}
		}
	}
	BEGIN {
		ncmd = split(cmds, cmd, /[ \t\n]+/)
		nd = split(defs, d, /\n/)
		for (i = 1; i <= nd; i++)
			def[d[i]] = 1
	}
	FNR == 1 { buf = "" }
	{
		line = $0
		if (FILENAME ~ /\.go$/) {
			if (line !~ /^[ \t]*\/\//) {
				buf = ""
				next
			}
			sub(/^[ \t]*\/\//, "", line)
		}
		if (buf == "")
			at = FNR
		if (line ~ /\\$/) {
			buf = buf substr(line, 1, length(line) - 1) " "
			next
		}
		check(buf line, FILENAME ":" at)
		buf = ""
	}
	END { exit bad }
' README.md DESIGN.md EXPERIMENTS.md docs/*.md $(ls cmd/*/*.go | grep -v '_test\.go$')

# Flag documentation gate: every flag a command under cmd/ defines must
# appear as -name in the reference documents, so that each flag has an
# operator procedure a reader can find.
fdoc=0
for def in $flagdefs; do
	if ! grep -qE -- "(^|[^A-Za-z0-9_-])-${def#*:}([^A-Za-z0-9_-]|\$)" README.md DESIGN.md EXPERIMENTS.md docs/*.md; then
		echo "cmd/${def%%:*} defines -${def#*:}, which README.md, DESIGN.md, EXPERIMENTS.md and docs/ never name" >&2
		fdoc=1
	fi
done
[ "$fdoc" = 0 ] || exit 1

# Settings ratchet: every exported field of an exported internal/ struct
# whose type name ends in Options, Config, Policy or Sweep, and of
# server.Server and client.MultiDialer, must be set by
# name by some non-test file outside its package (bench/ counts), or be
# listed with its reason in scripts/unset_settings.txt. A knob nobody sets
# is a constant beside its reader.
# Export ratchet: every other exported internal/ name (function, type,
# constant, variable, method; struct fields aside) must be named by some
# non-test file outside its package (bench/ counts), or be listed with its
# reason in scripts/unused_exports.txt. A method is also used when its type
# implements an interface the program declares, names or imports that has
# it, and a type when a used or listed name's signature, type or exported
# fields carry it. In leaktest and fleettest, which exist for tests, tests
# count as callers; the experiments the reference documents cite are
# exempt. Each finding says what to do: delete a name nothing names, move
# one only its own tests name into a _test.go file, unexport one only its
# own package names. TestExportAuditFixture holds those rules to
# testdata/exportaudit, one name per rule.
# Both audits are tests behind the settingsaudit build tag, so the plain
# suite neither builds nor runs them, and both run on one type-checked load
# of the repository. Each fails on an unlisted finding and on a listed name
# it no longer finds, so both lists only shrink.
go test -tags settingsaudit -run '^Test(Settings|Export)Audit' -count=1 .

# The whole suite once, uncached, under the race detector. This is also the
# run that holds the seeded system gates — TestChaosSoak (every failpoint
# site armed over the fleet + ingest stack), TestFleetChaos (balancer +
# kill/cold-restart/drain, zero duplicate primary sends), TestQoEFeedback
# (ingest -> rollup -> shed-budget loop), TestExtChaos (corruption + cold
# restart + admission probe on one session) in internal/experiments, all
# four on the internal/fleettest rig, and the sweep determinism gates
# (popsim's TestWorkerCountInvariance and TestShardEquivalence, and sim's
# TestSimWorkerCountInvariance):
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
# every input, and the fold must account for every line of any body. The
# rollup parser of the /rollup body on the feedback poll must refuse what it
# refuses with its receiver unchanged. The
# manifest the client reads off the wire and the operator's fault script must
# come out of their parsers with every dimension and time field in range, and
# the three trace readers usable or refused. The manifest's hand codec must
# agree with encoding/json in both directions: the reader on any body, the
# writer on any float64. The last three targets are not parsers: the zero-run
# CRC operator every frame trailer and manifest checksum now comes from must
# agree with hash/crc32 over literal zeros for any prefix and length, the
# culled cap walk under every tile-set query must list what the full-grid
# sample loop lists, bit for bit, for any center and radius, the packed
# RoI plane must read the sum of the dense per-radius planes it replaced,
# and the §3.3 send queue must keep its byte total, its masking and its
# send-once rule under any installs, pops and resume merges.
# Minimising a new input is capped at a second, so the ten seconds go on
# executing inputs (a rollup seed is kilobytes).
for target in $fuzz_targets; do
	go test -run '^$' -fuzz "^${target#*:}\$" -fuzztime "${FUZZTIME:-10s}" -fuzzminimizetime 1s "./internal/${target%%:*}"
done

# Benchmark smoke: every benchmark must still run, and its timing is
# checked against BENCH_baseline.json with cmd/benchdiff. The list and its
# split are scripts/benchrun.sh, shared with scripts/bench.sh: one iteration
# for the expensive experiment sweeps, more for the microsecond-scale
# micro-benchmarks whose single iteration is all warm-up noise. -benchmem
# feeds benchdiff's allocation gate, which fails even in warn mode: a
# benchmark the baseline holds at 0 allocs/op (Decide*, FlareDecide,
# PanoDecide, TwoTierDecide, Overlap*, TilesInCap, ScoreSlab/*, RenderFrame,
# UnmarshalEvent/canonical, FrameWritePreframed, and the pooled
# FrameWriteCRC and WriteManifest) that allocates, any
# other above baseline x1.05 + 3 allocs/op, and a baseline above the run's
# x1.25 + 3, which a change that saves allocations re-takes.
raw=$(mktemp)
trap 'rm -f "$raw"' EXIT
sh scripts/benchrun.sh 1x "${BENCHTIME_MICRO:-50x}" | tee "$raw"
if [ "$strict" = 1 ]; then
	go run ./cmd/benchdiff -baseline BENCH_baseline.json -new "$raw"
else
	go run ./cmd/benchdiff -baseline BENCH_baseline.json -new "$raw" -warn
fi
