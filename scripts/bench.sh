#!/bin/sh
# Regenerate a benchmark snapshot from the root-package benchmarks.
#
#   scripts/bench.sh            # rewrite BENCH_baseline.json (the CI gate)
#   scripts/bench.sh <label>    # write BENCH_<label>.json, a labelled
#                               # snapshot for before/after comparisons
#
# The end-to-end experiment sweeps and the many-connection streaming
# macro (ManyConnStream, 8 sessions serving from the shared tile store)
# run BENCHTIME iterations (default 1x: coarse but cheap, and
# cmd/benchdiff's threshold is sized for that noise).
# The microsecond-scale micro-benchmarks (Decide*, which includes
# DecideMidSession, FlareDecide, PanoDecide and TwoTierDecide, Overlap*,
# TilesInCap, the two that reach inside a package — internal/core's
# ScoreSlab/{primary,masking} and internal/player's RenderFrame — the
# internal/proto Frame*CRC wire-framing pairs and the two ends of a
# handshake (WriteManifest, ReadManifest), the two cold-start builds —
# internal/store's StoreNew and internal/video's Generate — the internal/obs
# trace-line decoder UnmarshalEvent/{canonical,fallback}, and the
# internal/ingest trace-fold path IngestFold and push/poll round trip
# PushPoll) run BENCHTIME_MICRO
# iterations (default 50x) — a single iteration of a ~µs benchmark is
# dominated by warm-up noise, which would trip the gate. The
# FrameWriteCRC/FrameWriteNoCRC (and Read) pairs also document the CRC32-C
# integrity overhead of wire v3 side by side.
# The list itself is scripts/benchrun.sh, which scripts/ci.sh runs too, so
# baseline and smoke are comparable.
set -eu
cd "$(dirname "$0")/.."

label="${1:-}"
out="BENCH_baseline.json"
note="generated by scripts/bench.sh; compare with cmd/benchdiff"
if [ -n "$label" ]; then
	out="BENCH_${label}.json"
	note="snapshot '$label', $(date -u +%Y-%m-%dT%H:%M:%SZ); compare with cmd/benchdiff"
fi

benchtime="${BENCHTIME:-1x}"
microtime="${BENCHTIME_MICRO:-50x}"
raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

sh scripts/benchrun.sh "$benchtime" "$microtime" | tee "$raw"
go run ./cmd/benchdiff -emit "$raw" -o "$out" -note "$note"
