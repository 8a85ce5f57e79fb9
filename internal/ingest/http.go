package ingest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dragonfly/internal/chaos"
	"dragonfly/internal/obs"
)

// handler returns the ingest service's HTTP surface:
//
//	POST /ingest   fold a JSONL trace body (one or more sessions)
//	GET  /rollup   the current per-cohort Rollup as JSON
//	GET  /healthz  liveness probe
//
// Like the obs admin handler it is meant for a trusted listener and
// performs no authentication.
func (a *Aggregator) handler() http.Handler {
	r := a.cfg.Obs
	cPush := r.Counter("ing_push_reqs")
	cPushBytes := r.Counter("ing_push_bytes")
	cPushErrs := r.Counter("ing_push_errs")
	cRollups := r.Counter("ing_rollup_reqs")

	mux := http.NewServeMux()
	mux.HandleFunc("/ingest", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		cPush.Inc()
		// Count what was read: ContentLength is -1 for a chunked body.
		body := countingReader{r: http.MaxBytesReader(w, req.Body, maxPushBytes)}
		lines, err := a.FoldReader(&body)
		if err != nil {
			cPushErrs.Inc()
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		cPushBytes.Add(body.n)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"lines\":%d}\n", lines)
	})
	mux.HandleFunc("/rollup", func(w http.ResponseWriter, req *http.Request) {
		cRollups.Inc()
		doc := getDoc()
		defer docPool.Put(doc)
		if err := encodeRollup(doc, a.Rollup()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(doc.Bytes())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// docPool holds the buffers a rollup document is encoded into (for
// /rollup and WriteSnapshot) and read into (Feedback's poll), so a round
// trip allocates none of them once the pool is warm. A document the poll
// reads is bounded by maxRollupBytes, and one the tier writes by its cohort
// cap, so no pooled buffer grows without bound.
var docPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// getDoc returns an empty buffer from docPool; Put it back when done with
// its bytes.
func getDoc() *bytes.Buffer {
	b := docPool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

// encodeRollup appends ru to dst as the one rollup document /rollup serves
// and rollup.json holds: two-space indented JSON and a newline, the bytes
// json.MarshalIndent(ru, "", "  ") and a '\n' make. The compact encoding
// goes through a pooled buffer and json.Indent re-indents it, which is what
// MarshalIndent does in buffers of its own.
func encodeRollup(dst *bytes.Buffer, ru Rollup) error {
	compact := getDoc()
	defer docPool.Put(compact)
	if err := json.NewEncoder(compact).Encode(ru); err != nil {
		return err
	}
	return json.Indent(dst, compact.Bytes(), "", "  ")
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// maxPushBytes bounds one POST /ingest body (a session trace at the
// defaultTraceCap ring bound is well under 1 MiB of JSONL).
const maxPushBytes = 32 << 20

// Serve listens on addr and serves Handler until ctx is done (obs.Serve).
func (a *Aggregator) Serve(ctx context.Context, addr string) (net.Addr, <-chan error, error) {
	return obs.Serve(ctx, addr, a.handler())
}

// snapshotFile is the rollup document's filename inside the snapshot dir.
const snapshotFile = "rollup.json"

// ingest.snapshot.write is the disk-tier snapshot failpoint: error fails
// the write cleanly (ENOSPC-style), partial leaves a torn rollup.json in
// place — the state a crash mid-write on a filesystem without atomic
// rename semantics (or a previous, rename-less version) leaves behind —
// and corrupt silently flips a byte in an otherwise successful write.
// quarantineSnapshot is the recovery the torn/corrupt kinds exist to test.
var siteSnapWrite = chaos.NewSite("ingest.snapshot.write")

// WriteSnapshot writes the current rollup to dir/rollup.json via a
// same-directory rename, so readers never observe a torn document.
func (a *Aggregator) WriteSnapshot(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	doc := getDoc()
	defer docPool.Put(doc)
	if err := encodeRollup(doc, a.Rollup()); err != nil {
		return "", err
	}
	data := doc.Bytes()
	final := filepath.Join(dir, snapshotFile)
	if f := siteSnapWrite.Fault(); f.Active() {
		return snapshotFaulted(final, data, f)
	}
	tmp := final + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return "", err
	}
	if err := os.Rename(tmp, final); err != nil {
		return "", err
	}
	return final, nil
}

// snapshotFaulted implements the armed ingest.snapshot.write kinds. The
// partial and corrupt kinds deliberately bypass the tmp+rename discipline:
// they plant the on-disk states (torn document, silent bit rot) that
// discipline normally rules out, so the startup quarantine path has
// something real to recover from. data is WriteSnapshot's pooled buffer:
// no kind keeps it past the return, and corrupt flips its byte in a copy.
func snapshotFaulted(final string, data []byte, f chaos.Fault) (string, error) {
	switch f.Kind {
	case chaos.FaultDelay:
		time.Sleep(f.Delay)
		tmp := final + ".tmp"
		if err := os.WriteFile(tmp, data, 0o644); err != nil {
			return "", err
		}
		if err := os.Rename(tmp, final); err != nil {
			return "", err
		}
		return final, nil
	case chaos.FaultPartial:
		k := int(float64(len(data)) * f.Frac)
		_ = os.WriteFile(final, data[:k], 0o644)
		return "", fmt.Errorf("ingest: snapshot %s: %w", final, f.Err)
	case chaos.FaultCorrupt:
		if len(data) > 0 {
			data = append([]byte(nil), data...)
			data[int(f.Tick%uint64(len(data)))] ^= 0x40
		}
		if err := os.WriteFile(final, data, 0o644); err != nil {
			return "", err
		}
		return final, nil // the writer believes it succeeded
	default:
		return "", fmt.Errorf("ingest: snapshot %s: %w", final, f.Err)
	}
}

// RunSnapshots writes a snapshot every interval until ctx is done, then
// writes one final snapshot so the file reflects everything folded. On
// entry it quarantines any corrupt or torn snapshot a previous process
// left behind (quarantineSnapshot), so the tier never serves — or keeps
// alive on disk — a document it cannot itself parse. A failed write is
// logged and counted, never fatal: the next tick retries.
func (a *Aggregator) RunSnapshots(ctx context.Context, dir string, interval time.Duration) {
	cSnaps := a.cfg.Obs.Counter("ing_snapshots")
	cErrs := a.cfg.Obs.Counter("ing_snapshot_errs")
	if _, err := a.quarantineSnapshot(dir); err != nil {
		a.logf("ingest: snapshot quarantine %s: %v", dir, err)
	}
	write := func() {
		if _, err := a.WriteSnapshot(dir); err != nil {
			cErrs.Inc()
			a.logf("ingest: %v", err)
			return
		}
		cSnaps.Inc()
	}
	if interval <= 0 {
		interval = 5 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			write()
			return
		case <-t.C:
			write()
		}
	}
}
