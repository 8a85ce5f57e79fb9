package ingest

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dragonfly/internal/chaos"
	"dragonfly/internal/obs"
)

// ingest.watch.read fails one file's consume pass — the disk-tier fault a
// trace file deleted mid-read or an EIO on its read surfaces as. The
// tailer's contract: log it, count it (ing_watch_errs), keep the loop
// alive, and pick the file back up when it becomes readable again.
var siteWatchRead = chaos.NewSite("ingest.watch.read")

// DefaultWatchInterval is the directory rescan period when Config leaves it 0.
const DefaultWatchInterval = 500 * time.Millisecond

// Watcher tails every *.jsonl file in a directory, folding appended lines
// into the Aggregator as servers write them. It is poll-based (stdlib
// only): each scan stats the directory, reads whatever grew past the
// remembered per-file offset, and folds complete lines, keeping a partial
// trailing line buffered until its newline lands. A file that shrinks is
// treated as rotated and re-read from the start with fresh session state.
//
// Run drives scans on a timer; Scan is exposed for tests and one-shot use.
// A Watcher is single-goroutine (the Aggregator underneath is what many
// sources share).
type Watcher struct {
	a        *Aggregator
	dir      string
	interval time.Duration

	files map[string]*tailFile

	gFiles    *obs.Gauge   // ing_watch_files: files currently tailed
	cBytes    *obs.Counter // ing_watch_bytes: trace bytes consumed
	cRotates  *obs.Counter // ing_watch_rotations: shrunk files re-read
	cScanErrs *obs.Counter // ing_watch_errs: directory/file read errors
}

type tailFile struct {
	offset    int64
	lineCarry // a partial trailing line waits here for the scan its newline lands in
	sf        *sessionFold
}

// NewWatcher tails dir into a. interval 0 means DefaultWatchInterval.
func NewWatcher(a *Aggregator, dir string, interval time.Duration) *Watcher {
	if interval <= 0 {
		interval = DefaultWatchInterval
	}
	r := a.cfg.Obs
	return &Watcher{
		a:         a,
		dir:       dir,
		interval:  interval,
		files:     map[string]*tailFile{},
		gFiles:    r.Gauge("ing_watch_files"),
		cBytes:    r.Counter("ing_watch_bytes"),
		cRotates:  r.Counter("ing_watch_rotations"),
		cScanErrs: r.Counter("ing_watch_errs"),
	}
}

// Run scans on the configured interval until ctx is done, with one final
// scan on the way out so trailing writes are not lost.
func (w *Watcher) Run(ctx context.Context) {
	t := time.NewTicker(w.interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			_ = w.Scan()
			return
		case <-t.C:
			_ = w.Scan()
		}
	}
}

// Scan performs one pass: pick up new files, consume growth, drop state
// for deleted files. Per-file errors are counted and skipped; the returned
// error is only a directory-level failure.
func (w *Watcher) Scan() error {
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		w.cScanErrs.Inc()
		return err
	}
	// One read buffer and one decode batch serve every file of the pass.
	scratch := scratchPool.Get().(*foldScratch)
	defer scratchPool.Put(scratch)
	seen := map[string]bool{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".jsonl") {
			continue
		}
		path := filepath.Join(w.dir, e.Name())
		seen[path] = true
		tf := w.files[path]
		if tf == nil {
			tf = &tailFile{sf: w.a.newSession()}
			w.files[path] = tf
		}
		if err := w.consume(path, tf, scratch); err != nil {
			// Survive, don't abandon: a file deleted mid-read, an EIO, a
			// permission flip — the tail loop logs and counts the error,
			// keeps its offset, and retries this file on the next scan
			// (or drops its state below once the directory listing agrees
			// it is gone).
			w.cScanErrs.Inc()
			w.a.logf("ingest: tail %s: %v", path, err)
		}
	}
	for path, tf := range w.files {
		if !seen[path] {
			tf.sf.closeSession()
			delete(w.files, path)
		}
	}
	w.gFiles.Set(float64(len(w.files)))
	return nil
}

// consume folds every complete line past tf.offset, foldBatchSize events at
// a time.
func (w *Watcher) consume(path string, tf *tailFile, scratch *foldScratch) error {
	if err := siteWatchRead.Err(); err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	if fi.Size() < tf.offset {
		// Truncated or rotated in place: restart with fresh session state.
		w.cRotates.Inc()
		tf.sf.closeSession()
		*tf = tailFile{sf: w.a.newSession()}
	}
	if fi.Size() == tf.offset {
		return nil
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.Seek(tf.offset, io.SeekStart); err != nil {
		return err
	}
	_, n, err := scratch.foldLines(tf.sf, path, f, &tf.lineCarry)
	scratch.flush(tf.sf)
	tf.offset += n
	w.cBytes.Add(n)
	return err
}
