package ingest

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"dragonfly/internal/obs"
)

// corruptSuffix is appended to a quarantined snapshot's name; the damaged
// document is preserved for post-mortem instead of deleted.
const corruptSuffix = ".corrupt"

// ReadSnapshot loads and validates dir/rollup.json: the document must be
// whole JSON and carry the trace schema version this build folds. Torn,
// corrupt, or cross-version snapshots return an error — callers must never
// act on a rollup the tier cannot vouch for.
func ReadSnapshot(dir string) (Rollup, error) {
	path := filepath.Join(dir, snapshotFile)
	data, err := os.ReadFile(path)
	if err != nil {
		return Rollup{}, err
	}
	var ru Rollup
	if err := json.Unmarshal(data, &ru); err != nil {
		return Rollup{}, fmt.Errorf("ingest: snapshot %s: %w", path, err)
	}
	if ru.SchemaVersion != obs.TraceSchemaVersion {
		return Rollup{}, fmt.Errorf("ingest: snapshot %s: schema version %d (want %d)",
			path, ru.SchemaVersion, obs.TraceSchemaVersion)
	}
	return ru, nil
}

// quarantineSnapshot is the startup recovery for snapshot state a dead
// process left behind: a stale .tmp (a write that never reached its
// rename) is removed, and a rollup.json that fails ReadSnapshot — torn
// mid-write, bit-rotted, or written by a different schema version — is
// moved aside to rollup.json.corrupt (preserving the evidence) so the
// tier restarts from a clean slate instead of serving or extending
// garbage. A healthy snapshot is left untouched.
//
// Returns whether a quarantine happened; quarantines are counted in
// ing_quarantined and logged with the parse error.
func (a *Aggregator) quarantineSnapshot(dir string) (bool, error) {
	final := filepath.Join(dir, snapshotFile)
	if err := os.Remove(final + ".tmp"); err == nil {
		a.logf("ingest: removed stale snapshot temp file %s.tmp", final)
	}
	_, rerr := ReadSnapshot(dir)
	if rerr == nil {
		return false, nil
	}
	if os.IsNotExist(rerr) {
		return false, nil // no snapshot at all: a clean first start
	}
	if err := os.Rename(final, final+corruptSuffix); err != nil {
		return false, fmt.Errorf("ingest: quarantine %s: %w", final, err)
	}
	a.cfg.Obs.Counter("ing_quarantined").Inc()
	a.logf("ingest: quarantined snapshot %s -> %s%s: %v", final, final, corruptSuffix, rerr)
	return true, nil
}
