package ingest

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dragonfly/internal/chaos"
	"dragonfly/internal/obs"
	"dragonfly/internal/stats"
)

// goldenRollupPath is the rollup document of goldenAggregator's fold, as
// GET /rollup serves it and WriteSnapshot writes it (format rollup, rev 1).
const goldenRollupPath = "testdata/rollup.1.golden"

// goldenAggregator folds the fixed, seeded traces behind rollup.1.golden:
// three cohorts, one of them named with the characters JSON escapes for
// HTML, so the vector pins that escaping too.
func goldenAggregator(t testing.TB) *Aggregator {
	t.Helper()
	agg := New(Config{})
	rng := rand.New(rand.NewSource(1))
	for _, cohort := range []string{"low:belgian", "high:irish", "mid:<dsl&fiber>", "low:belgian"} {
		body, _ := sessionJSONL(t, cohort, rng, 40)
		if _, err := agg.FoldReader(bytes.NewReader(body)); err != nil {
			t.Fatal(err)
		}
	}
	return agg
}

// generatedRE matches the one field of a rollup document that is not a
// function of the fold: the wall clock the rollup was taken at.
var generatedRE = regexp.MustCompile(`"generated_unix_ms": [0-9]+`)

// pinGenerated rewrites doc's generated_unix_ms to the golden vector's and
// fails unless doc holds that field exactly once.
func pinGenerated(t *testing.T, doc, golden []byte) []byte {
	t.Helper()
	want := generatedRE.Find(golden)
	if n := len(generatedRE.FindAll(doc, -1)); want == nil || n != 1 {
		t.Fatalf("document holds generated_unix_ms %d times (golden: %q)", n, want)
	}
	return generatedRE.ReplaceAllLiteral(doc, want)
}

// TestRollupGoldenVector: the GET /rollup body, the WriteSnapshot file and
// json.MarshalIndent(rollup, "", "  ") + "\n" (the snapshot's encoding
// before the two paths shared one encoder) are each rollup.1.golden, byte
// for byte once the wall-clock field is pinned.
func TestRollupGoldenVector(t *testing.T) {
	golden, err := os.ReadFile(goldenRollupPath)
	if err != nil {
		t.Fatal(err)
	}
	agg := goldenAggregator(t)

	oracle, err := json.MarshalIndent(agg.Rollup(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	oracle = append(oracle, '\n')

	ts := httptest.NewServer(agg.handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/rollup")
	if err != nil {
		t.Fatal(err)
	}
	served, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /rollup: %v, %v", resp.Status, err)
	}

	path, err := agg.WriteSnapshot(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for _, out := range []struct {
		name string
		doc  []byte
	}{{"MarshalIndent oracle", oracle}, {"GET /rollup", served}, {"WriteSnapshot", onDisk}} {
		if got := pinGenerated(t, out.doc, golden); !bytes.Equal(got, golden) {
			t.Errorf("%s differs from %s:\n%s", out.name, goldenRollupPath, got)
		}
	}
	ru, err := decodeRollup(golden)
	if err != nil {
		t.Fatalf("the poll refuses the golden vector: %v", err)
	}
	if len(ru.Cohorts) != 3 || ru.Cohorts["low:belgian"].Sessions != 2 || ru.SchemaVersion != obs.TraceSchemaVersion {
		t.Errorf("golden vector decodes to %d cohorts, %d low:belgian sessions, schema %d",
			len(ru.Cohorts), ru.Cohorts["low:belgian"].Sessions, ru.SchemaVersion)
	}
}

// TestSnapshotFaultedLeavesDataIntact: the partial and corrupt snapshot
// kinds write what they plant without touching data, which is the pooled
// buffer WriteSnapshot hands back to the pool once they return.
func TestSnapshotFaultedLeavesDataIntact(t *testing.T) {
	data, err := os.ReadFile(goldenRollupPath)
	if err != nil {
		t.Fatal(err)
	}
	orig := slices.Clone(data)
	final := filepath.Join(t.TempDir(), snapshotFile)

	if _, err := snapshotFaulted(final, data, chaos.Fault{Kind: chaos.FaultPartial, Frac: 0.5, Err: chaos.ErrInjected}); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("partial: error %v, want ErrInjected", err)
	}
	if torn, _ := os.ReadFile(final); !bytes.Equal(torn, orig[:len(orig)/2]) {
		t.Errorf("partial wrote %d bytes, want the first %d of the document", len(torn), len(orig)/2)
	}
	if !bytes.Equal(data, orig) {
		t.Fatal("partial kind changed the document it was handed")
	}

	const tick = 7
	if _, err := snapshotFaulted(final, data, chaos.Fault{Kind: chaos.FaultCorrupt, Tick: tick}); err != nil {
		t.Fatalf("corrupt: %v", err)
	}
	rotten, _ := os.ReadFile(final)
	if len(rotten) != len(orig) || rotten[tick] != orig[tick]^0x40 || !bytes.Equal(rotten[:tick], orig[:tick]) || !bytes.Equal(rotten[tick+1:], orig[tick+1:]) {
		t.Errorf("corrupt kind did not write the document with byte %d flipped", tick)
	}
	if !bytes.Equal(data, orig) {
		t.Fatal("corrupt kind flipped a byte of the document it was handed, not of a copy")
	}
}

// largestRollup is the biggest rollup document a tier of ours serves:
// maxFeedbackCohorts cohorts, each named with maxCohortNameLen bytes that
// JSON escapes to six, and every count and quantile at its longest
// spelling.
func largestRollup() Rollup {
	long := stats.SketchSummary{Count: math.MaxUint64}
	for _, v := range []*float64{&long.Mean, &long.P10, &long.P25, &long.P50, &long.P90, &long.P99} {
		*v = -math.MaxFloat64 // -1.7976931348623157e+308
	}
	ru := Rollup{SchemaVersion: math.MinInt, GeneratedUnixMS: math.MinInt64, QualityEnvDB: -math.MaxFloat64,
		Cohorts: make(map[string]CohortRollup, maxFeedbackCohorts)}
	for i := 0; i < maxFeedbackCohorts; i++ {
		name := fmt.Sprintf("%04d", i) + strings.Repeat("<", maxCohortNameLen-4)
		ru.Cohorts[name] = CohortRollup{Sessions: math.MinInt64, Events: math.MinInt64,
			QualityDB: long, StallMS: long, StartupMS: long, OutageMS: long, ShedBytes: long}
	}
	return ru
}

// TestMaxRollupFitsLargestRollup: the poll's byte bound admits the largest
// document the fold can produce, with room to spare.
func TestMaxRollupFitsLargestRollup(t *testing.T) {
	var doc bytes.Buffer
	if err := encodeRollup(&doc, largestRollup()); err != nil {
		t.Fatal(err)
	}
	if doc.Len() > maxRollupBytes*3/4 {
		t.Fatalf("largest rollup is %d bytes; maxRollupBytes %d leaves under a quarter spare", doc.Len(), maxRollupBytes)
	}
	if _, err := decodeRollup(doc.Bytes()); err != nil {
		t.Fatalf("the poll refuses the largest rollup: %v", err)
	}
	t.Logf("largest rollup: %d bytes of %d", doc.Len(), maxRollupBytes)
}

// TestFeedbackRefusesMalformedBodies: a /rollup body the poll must not act
// on fails the poll, counts in srv_qoe_poll_errs and leaves the scales in
// force. A valid document over maxRollupBytes is refused before it is
// decoded (a json.Decoder read the whole of any size); bytes after the
// document are refused too (a json.Decoder stopped at the document's end).
func TestFeedbackRefusesMalformedBodies(t *testing.T) {
	golden, err := os.ReadFile(goldenRollupPath)
	if err != nil {
		t.Fatal(err)
	}
	// An unknown field carries the padding, so the document stays one
	// valid JSON object with the golden cohorts.
	oversized := slices.Concat([]byte(`{"pad":"`), bytes.Repeat([]byte("x"), maxRollupBytes), []byte(`",`), golden[1:])
	var check Rollup
	if err := json.Unmarshal(oversized, &check); err != nil || len(check.Cohorts) != 3 {
		t.Fatalf("oversized body is not a valid rollup: %v", err)
	}
	for _, c := range []struct {
		name string
		body []byte
	}{
		{"over maxRollupBytes", oversized},
		{"bytes after the document", append(slices.Clone(golden), `{"cohorts":{}}`...)},
	} {
		t.Run(c.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				_, _ = w.Write(c.body)
			}))
			defer ts.Close()
			reg := obs.NewRegistry()
			f := NewFeedback(FeedbackConfig{URL: ts.URL, TargetDB: 40, Obs: reg})
			if err := f.apply(Rollup{Cohorts: map[string]CohortRollup{
				"prior": {Sessions: 5, QualityDB: stats.SketchSummary{Count: 10, P50: 44}},
			}}); err != nil {
				t.Fatal(err)
			}
			want := f.CohortScale("prior")
			if err := f.pollOnce(context.Background()); err == nil {
				t.Fatal("poll accepted the body")
			}
			if got := reg.Snapshot().Counters["srv_qoe_poll_errs"]; got != 1 {
				t.Errorf("srv_qoe_poll_errs = %d, want 1", got)
			}
			if got := f.CohortScale("prior"); got != want || len(f.scales) != 1 {
				t.Errorf("refused body changed the scales: prior %v -> %v, %d cohorts", want, got, len(f.scales))
			}
		})
	}
}

// TestPusherSendsChunkedBody: a push reaches the handler chunked, with
// exactly the bytes pushed, and so does a push after the server closed the
// kept-alive connection the first one used. That push is sent again whole:
// by the transport through the request's GetBody when nothing of it had been
// written, otherwise by the Pusher's next attempt.
func TestPusherSendsChunkedBody(t *testing.T) {
	type seen struct {
		te   []string
		body []byte
	}
	var (
		mu   sync.Mutex
		reqs []seen
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		mu.Lock()
		reqs = append(reqs, seen{r.TransferEncoding, body})
		mu.Unlock()
	}))
	defer ts.Close()

	rng := rand.New(rand.NewSource(11))
	p := NewPusher(PushConfig{URL: ts.URL, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond})
	var bodies [][]byte
	for i := 0; i < 3; i++ {
		body, _ := sessionJSONL(t, "low:net", rng, 100+50*i)
		if err := p.Push(context.Background(), body); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
		bodies = append(bodies, body)
		ts.CloseClientConnections()
	}

	mu.Lock()
	defer mu.Unlock()
	if len(reqs) != len(bodies) {
		t.Fatalf("handler saw %d requests, want %d", len(reqs), len(bodies))
	}
	for i, r := range reqs {
		if !slices.Equal(r.te, []string{"chunked"}) {
			t.Errorf("push %d: TransferEncoding %q, want [chunked]", i, r.te)
		}
		if !bytes.Equal(r.body, bodies[i]) {
			t.Errorf("push %d: handler read %d bytes, not the %d pushed", i, len(r.body), len(bodies[i]))
		}
	}
}

// BenchmarkPushPoll is one ingest round trip over loopback HTTP: a Pusher
// posts one corpus-sized session trace (about 2 400 lines) and a Feedback
// polls the rollup of twelve cohorts, as an op of the ingest_mixed workload
// does sixteen and one times. Allocations are both sides'.
func BenchmarkPushPoll(b *testing.B) {
	agg := New(Config{})
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 12; i++ {
		body, _ := sessionJSONL(b, fmt.Sprintf("c%d:net", i), rng, 30)
		if _, err := agg.FoldReader(bytes.NewReader(body)); err != nil {
			b.Fatal(err)
		}
	}
	ts := httptest.NewServer(agg.handler())
	defer ts.Close()
	body, _ := sessionJSONL(b, "c0:net", rng, 2400)
	p := NewPusher(PushConfig{URL: ts.URL + "/ingest"})
	f := NewFeedback(FeedbackConfig{URL: ts.URL + "/rollup", TargetDB: 40})
	ctx := context.Background()
	op := func() {
		if err := p.Push(ctx, body); err != nil {
			b.Fatal(err)
		}
		if err := f.Poll(ctx); err != nil {
			b.Fatal(err)
		}
	}
	op() // dial the connections and fill the pools outside the timed loop
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}
