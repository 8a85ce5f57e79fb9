package experiments

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type failingWriter struct {
	budget int // bytes accepted before failing
}

var errDiskFull = errors.New("synthetic disk full")

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.budget <= 0 {
		return 0, errDiskFull
	}
	n := len(p)
	if n > w.budget {
		n = w.budget
	}
	w.budget -= n
	if n < len(p) {
		return n, errDiskFull
	}
	return n, nil
}

// TestWriteCDFPropagatesWriteErrors is the regression test for the
// swallowed-error bug: a failing writer (disk full) used to be ignored,
// producing a silently truncated CSV; now the error surfaces.
func TestWriteCDFPropagatesWriteErrors(t *testing.T) {
	series := map[string][]float64{"a": {1, 2, 3, 4, 5}, "b": {6, 7, 8, 9, 10}}
	if err := writeCDFTo(&failingWriter{budget: 0}, series, 5); !errors.Is(err, errDiskFull) {
		t.Fatalf("header write error swallowed: got %v", err)
	}
	if err := writeCDFTo(&failingWriter{budget: 30}, series, 5); !errors.Is(err, errDiskFull) {
		t.Fatalf("row write error swallowed: got %v", err)
	}
}

func TestWriteCDFCSVCreateError(t *testing.T) {
	dir := t.TempDir()
	// The target path is a directory: os.Create must fail and the error
	// must carry the path.
	err := writeCDFCSV(dir, map[string][]float64{"a": {1}}, 10)
	if err == nil {
		t.Fatal("creating a CSV over a directory succeeded")
	}
	if !strings.Contains(err.Error(), dir) {
		t.Fatalf("error %q does not name the path", err)
	}
}

func TestWriteCDFCSVRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cdf.csv")
	series := map[string][]float64{"q": {3, 1, 2}, "w": {5, 4}}
	if err := writeCDFCSV(path, series, 10); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if lines[0] != "q_value,q_frac,w_value,w_frac" {
		t.Fatalf("header = %q", lines[0])
	}
	// 3 rows for q (the longer series), padded for w.
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), data)
	}
	if !strings.HasPrefix(lines[1], "1.0000,") {
		t.Fatalf("first row = %q, want sorted series starting at 1.0000", lines[1])
	}
	if !strings.HasSuffix(lines[3], ",") {
		t.Fatalf("padded row = %q, want trailing empty cells", lines[3])
	}
}
