package ingest

import "dragonfly/internal/obs"

// batchOfOne is Line's and Event's batch. No test folds through them from
// two goroutines, so one batch serves every fold without allocating.
var batchOfOne [1]obs.Event

// Line folds one JSONL line. Whitespace-only lines are skipped, malformed
// JSON counts as a bad line, and wrong-schema-version events are rejected
// (counted, never folded) — the trace versioning policy in
// docs/OBSERVABILITY.md.
func (sf *sessionFold) Line(line []byte) {
	sf.foldBatch(sf.appendLine(batchOfOne[:0], line))
}

// Event folds one already-decoded event.
func (sf *sessionFold) Event(ev obs.Event) {
	batchOfOne[0] = ev
	sf.foldBatch(batchOfOne[:])
}
