package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("sent")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("sent") != c {
		t.Fatal("second lookup returned a different counter")
	}
	g := r.Gauge("rate")
	g.Set(3.5)
	if got := g.value(); got != 3.5 {
		t.Fatalf("gauge = %v, want 3.5", got)
	}
}

func TestHistogramBucketsAndStats(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", 1, 10, 100)
	for _, v := range []float64{0.5, 5, 50, 500, 7} {
		h.Observe(v)
	}
	h.Observe(math.NaN()) // ignored
	snap := r.Snapshot().Histograms["lat"]
	if snap.Count != 5 {
		t.Fatalf("count = %d, want 5", snap.Count)
	}
	if want := []int64{1, 2, 1, 1}; len(snap.Buckets) != len(want) {
		t.Fatalf("buckets = %v, want %v", snap.Buckets, want)
	} else {
		for i := range want {
			if snap.Buckets[i] != want[i] {
				t.Fatalf("buckets = %v, want %v", snap.Buckets, want)
			}
		}
	}
	if snap.Min != 0.5 || snap.Max != 500 {
		t.Fatalf("min/max = %v/%v, want 0.5/500", snap.Min, snap.Max)
	}
	if got, want := snap.Sum, 562.5; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
}

func TestEmptyHistogramSnapshotHasNoInfinities(t *testing.T) {
	r := NewRegistry()
	r.Histogram("empty")
	snap := r.Snapshot().Histograms["empty"]
	if snap.Count != 0 || snap.Min != 0 || snap.Max != 0 || snap.Mean != 0 {
		t.Fatalf("empty histogram snapshot = %+v, want zeros", snap)
	}
	// The snapshot must survive JSON encoding (no +Inf values).
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("marshal empty histogram: %v", err)
	}
}

func TestNilRegistryAndMetricsAreSafe(t *testing.T) {
	var r *Registry
	r.Counter("x").Add(3)
	r.Gauge("y").Set(1)
	r.Histogram("z").Observe(2)
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
	var c *Counter
	c.Inc()
	var g *Gauge
	g.Set(1)
	var h *Histogram
	h.Observe(1)
	var tr *Trace
	tr.Add(Event{Kind: EvStall})
	tr.Record(time.Second, EvFetch, 10)
	if tr.Len() != 0 || tr.Events() != nil || tr.Dropped() != 0 {
		t.Fatal("nil trace should be inert")
	}
	if err := tr.WriteJSONL(io.Discard); err != nil {
		t.Fatalf("nil trace WriteJSONL: %v", err)
	}
}

// TestConcurrentUpdatesAndSnapshots is the race-detector test the issue
// asks for: counters, gauges and histograms hammered from many goroutines
// while snapshots are taken mid-write.
func TestConcurrentUpdatesAndSnapshots(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	snapDone := make(chan struct{})
	go func() { // snapshot during writes
		defer close(snapDone)
		for {
			select {
			case <-stop:
				return
			default:
				_ = r.Snapshot()
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("hits").Inc()
				r.Counter(fmt.Sprintf("hits_%d", w%2)).Inc()
				r.Gauge("level").Set(float64(i))
				r.Histogram("sizes").Observe(float64(i % 100))
			}
		}(w)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := NewTrace(64)
			for i := 0; i < perWorker; i++ {
				tr.Record(time.Duration(i), EvFetch, int64(i))
			}
			if tr.Len() != 64 {
				t.Errorf("trace len = %d, want 64", tr.Len())
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-snapDone

	snap := r.Snapshot()
	if got := snap.Counters["hits"]; got != workers*perWorker {
		t.Fatalf("hits = %d, want %d", got, workers*perWorker)
	}
	hs := snap.Histograms["sizes"]
	if hs.Count != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", hs.Count, workers*perWorker)
	}
	var bucketTotal int64
	for _, b := range hs.Buckets {
		bucketTotal += b
	}
	if bucketTotal != hs.Count {
		t.Fatalf("bucket total %d != count %d", bucketTotal, hs.Count)
	}
}

func TestTraceRingKeepsNewestAndCountsDropped(t *testing.T) {
	tr := NewTrace(4)
	for i := 0; i < 10; i++ {
		tr.Record(time.Duration(i)*time.Millisecond, EvFetch, int64(i))
	}
	if tr.Len() != 4 {
		t.Fatalf("len = %d, want 4", tr.Len())
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", tr.Dropped())
	}
	evs := tr.Events()
	for i, e := range evs {
		if want := int64(6 + i); e.N != want {
			t.Fatalf("event %d N = %d, want %d (events: %+v)", i, e.N, want, evs)
		}
	}
}

func TestTraceWriteJSONL(t *testing.T) {
	tr := NewTrace(8)
	tr.Add(Event{At: 1500 * time.Millisecond, Kind: EvStall})
	tr.Add(Event{At: 2 * time.Second, Kind: EvFetch, Chunk: 3, Tile: 7, N: 4096})
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2: %q", len(lines), buf.String())
	}
	var e Event
	if err := json.Unmarshal([]byte(lines[1]), &e); err != nil {
		t.Fatal(err)
	}
	if e.Kind != EvFetch || e.Chunk != 3 || e.Tile != 7 || e.N != 4096 || e.AtMS != 2000 {
		t.Fatalf("decoded event = %+v", e)
	}
}

// TestTraceWriteFile: the file holds exactly WriteJSONL's bytes and no
// temporary is left beside it; a failed write leaves neither.
func TestTraceWriteFile(t *testing.T) {
	tr := NewTrace(8)
	tr.Add(SessionEvent("v1", "low:lte"))
	tr.Add(Event{At: time.Second, Kind: EvFetch, N: 10})
	var want bytes.Buffer
	if err := tr.WriteJSONL(&want); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "s.jsonl")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("file = %q, %v; want %q", got, err, want.Bytes())
	}
	if err := tr.WriteFile(filepath.Join(dir, "missing", "s.jsonl")); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Fatalf("directory holds %d entries, want only s.jsonl", len(ents))
	}
}

func TestAdminHandlerMetricsAndPprof(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("server_primary_sent").Add(42)
	reg.Histogram("tile_bytes", 10, 100).Observe(50)
	srv := httptest.NewServer(handler(reg))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode /metrics: %v", err)
	}
	if snap.Counters["server_primary_sent"] != 42 {
		t.Fatalf("snapshot counters = %+v", snap.Counters)
	}
	if snap.Histograms["tile_bytes"].Count != 1 {
		t.Fatalf("snapshot histograms = %+v", snap.Histograms)
	}

	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/healthz"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status = %d", path, resp.StatusCode)
		}
	}
}

func TestServeAdminLifecycle(t *testing.T) {
	reg := NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	lines := make(chan string, 4)
	logf := func(format string, args ...any) { lines <- fmt.Sprintf(format, args...) }
	if err := ServeAdmin(ctx, "127.0.0.1:0", reg, logf); err != nil {
		t.Fatal(err)
	}
	var addr string
	if line := <-lines; !strings.HasPrefix(line, "admin endpoint on http://") {
		t.Fatalf("first log line %q does not give the bound address", line)
	} else {
		addr, _, _ = strings.Cut(strings.TrimPrefix(line, "admin endpoint on http://"), " ")
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			break
		}
		c.Close()
		if time.Now().After(deadline) {
			t.Fatal("admin server did not shut down")
		}
		time.Sleep(10 * time.Millisecond)
	}
	select {
	case line := <-lines:
		t.Fatalf("a clean shutdown logged %q", line)
	case <-time.After(100 * time.Millisecond):
	}
	if err := ServeAdmin(context.Background(), addr+"x", reg, logf); err == nil {
		t.Error("a bad listen address was taken")
	}
}
