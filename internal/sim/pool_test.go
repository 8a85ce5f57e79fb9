package sim

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"dragonfly/internal/quality"
)

// TestPoolStopsAtFirstError: with one worker the indices come in order,
// nothing past the failing index is called, and the error comes back as do
// returned it.
func TestPoolStopsAtFirstError(t *testing.T) {
	boom := errors.New("boom")
	var got []int
	_, err := Pool(nil, quality.PSNR, 1, 10, 1, func(i int) error {
		got = append(got, i)
		if i == 3 {
			return boom
		}
		return nil
	})
	if err != boom {
		t.Fatalf("err = %v, want the error do returned, unwrapped", err)
	}
	if !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Fatalf("called %v, want [0 1 2 3]", got)
	}
}

// TestPoolCallsEachIndexOnce: many workers still call every index exactly
// once, and Stats counts perCall sessions per call.
func TestPoolCallsEachIndexOnce(t *testing.T) {
	const n = 200
	var calls [n]atomic.Int32
	st, err := Pool(nil, quality.PSNR, 4, n, 3, func(i int) error {
		calls[i].Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range calls {
		if c := calls[i].Load(); c != 1 {
			t.Fatalf("index %d called %d times", i, c)
		}
	}
	if st.Sessions != 3*n {
		t.Fatalf("Stats.Sessions = %d, want %d", st.Sessions, 3*n)
	}
}

// TestSimWorkerCountInvariance: one worker and four give the same Results
// and byte-identical session traces.
func TestSimWorkerCountInvariance(t *testing.T) {
	var (
		res  [2]Results
		dirs [2]string
	)
	for k, workers := range []int{1, 4} {
		sw := smallSweep("dragonfly", "pano")
		sw.Workers = workers
		dirs[k] = t.TempDir()
		sw.TraceDir = dirs[k]
		var err error
		if res[k], err = Run(sw); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(res[0], res[1]) {
		t.Fatal("Results differ between 1 worker and 4 workers")
	}
	files, err := filepath.Glob(filepath.Join(dirs[0], "*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 8 { // 2 schemes x 1 video x 2 users x 2 bandwidths
		t.Fatalf("got %d trace files, want 8", len(files))
	}
	for _, f := range files {
		a, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirs[1], filepath.Base(f)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between 1 worker and 4 workers", filepath.Base(f))
		}
	}
}
