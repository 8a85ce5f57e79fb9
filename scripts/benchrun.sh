#!/bin/sh
# The one list of `go test -bench` runs behind both the committed snapshots
# (scripts/bench.sh) and the CI smoke (scripts/ci.sh), so the two cannot
# drift: scripts/benchrun.sh <macro benchtime> <micro benchtime>, raw
# `go test` output on stdout. Macro entries (the end-to-end experiment
# sweeps, ManyConnStream, PopulationSweep) are coarse but expensive; a single
# iteration of a microsecond-scale micro-benchmark is all warm-up noise, so
# those take their own, larger count.
set -eu
cd "$(dirname "$0")/.."
macro="$1"
micro="$2"

run() { go test -run '^$' -bench="$1" -benchmem -benchtime="$2" "$3"; }

run 'Fig|Table|Tiling|Ext|ManyConn' "$macro" .
run 'Decide|Overlap|TilesInCap' "$micro" .
run 'ScoreSlab' "$micro" ./internal/core
run 'RenderFrame' "$micro" ./internal/player
run 'Frame|Manifest' "$micro" ./internal/proto
run 'StoreNew' "$micro" ./internal/store
run 'SessionStart' "$micro" ./internal/server
run 'Generate' "$micro" ./internal/video
run 'UnmarshalEvent' "$micro" ./internal/obs
run 'IngestFold|PushPoll' "$micro" ./internal/ingest
# Population macro: 10k streamed sessions through the sharded sweep engine
# (sketch aggregation keeps memory flat, so this times throughput, not GC).
run 'PopulationSweep' "$macro" ./internal/popsim
