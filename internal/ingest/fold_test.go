package ingest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"dragonfly/internal/obs"
	"dragonfly/internal/sim"
	"dragonfly/internal/trace"
	"dragonfly/internal/video"
)

// foldState is everything a fold leaves behind that a reader can observe:
// the rollup (minus its timestamp) and the shared ing_* fold metrics.
type foldState struct {
	Rollup  Rollup
	Metrics map[string]int64
}

func observe(agg *Aggregator, reg *obs.Registry) foldState {
	ru := agg.Rollup()
	ru.GeneratedUnixMS = 0
	snap := reg.Snapshot()
	m := map[string]int64{"ing_cohorts": int64(snap.Gauges["ing_cohorts"])}
	for _, name := range []string{"ing_events", "ing_sessions", "ing_rejected_events", "ing_bad_lines"} {
		m[name] = snap.Counters[name]
	}
	return foldState{ru, m}
}

// raggedReader returns between 1 and max bytes per Read.
type raggedReader struct {
	r   io.Reader
	rng *rand.Rand
	max int
}

func (r *raggedReader) Read(p []byte) (int, error) {
	return r.r.Read(p[:min(len(p), 1+r.rng.Intn(r.max))])
}

// The ways a trace stream reaches the aggregator: line by line, event by
// event, and through the line splitter — FoldReader over readers that return
// all they have, one byte, or 1..N bytes per Read, and the watcher with the
// file landing in one scan, in two (cut mid-line) and in many. fold returns
// the lines consumed, or -1 where the entry point does not count them.
var foldEntryPoints = []struct {
	name string
	fold func(t *testing.T, agg *Aggregator, body []byte) int
}{
	{"Line", func(t *testing.T, agg *Aggregator, body []byte) int {
		sf := agg.newSession()
		defer sf.closeSession()
		for _, line := range bytes.Split(body, []byte("\n")) {
			sf.Line(line)
		}
		return -1
	}},
	{"Event", func(t *testing.T, agg *Aggregator, body []byte) int {
		sf := agg.newSession()
		defer sf.closeSession()
		for _, line := range bytes.Split(body, []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			var ev obs.Event
			if err := json.Unmarshal(line, &ev); err != nil {
				t.Fatalf("stream line %q: %v", line, err)
			}
			sf.Event(ev)
		}
		return -1
	}},
	{"FoldReader", func(t *testing.T, agg *Aggregator, body []byte) int {
		return foldReader(t, agg, bytes.NewReader(body))
	}},
	{"FoldReader/one-byte-reads", func(t *testing.T, agg *Aggregator, body []byte) int {
		return foldReader(t, agg, iotest.OneByteReader(bytes.NewReader(body)))
	}},
	{"FoldReader/ragged-reads", func(t *testing.T, agg *Aggregator, body []byte) int {
		return foldReader(t, agg, &raggedReader{bytes.NewReader(body), rand.New(rand.NewSource(11)), 3000})
	}},
	{"Watcher", func(t *testing.T, agg *Aggregator, body []byte) int {
		watchInPieces(t, agg, body, len(body))
		return -1
	}},
	{"Watcher/two-scans", func(t *testing.T, agg *Aggregator, body []byte) int {
		watchInPieces(t, agg, body, len(body)/2+7)
		return -1
	}},
	{"Watcher/many-scans", func(t *testing.T, agg *Aggregator, body []byte) int {
		watchInPieces(t, agg, body, len(body)/61+1)
		return -1
	}},
}

// splits reports whether a fold entry point goes through the line splitter.
func splits(name string) bool {
	return strings.HasPrefix(name, "FoldReader") || strings.HasPrefix(name, "Watcher")
}

func foldReader(t *testing.T, agg *Aggregator, r io.Reader) int {
	t.Helper()
	n, err := agg.FoldReader(r)
	if err != nil {
		t.Fatalf("FoldReader: %v", err)
	}
	return n
}

// watchInPieces appends body to a tailed file, cut bytes at a time, with a
// scan after each append. A tailer holds a last line without a newline back
// as possibly half-written, so the writer here ends it.
func watchInPieces(t *testing.T, agg *Aggregator, body []byte, cut int) {
	t.Helper()
	if !bytes.HasSuffix(body, []byte("\n")) {
		body = append(body[:len(body):len(body)], '\n')
	}
	dir := t.TempDir()
	w := NewWatcher(agg, dir, time.Hour)
	f, err := os.Create(filepath.Join(dir, "s.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for len(body) > 0 {
		n := min(cut, len(body))
		if _, err := f.Write(body[:n]); err != nil {
			t.Fatal(err)
		}
		body = body[n:]
		if err := w.Scan(); err != nil {
			t.Fatalf("Scan: %v", err)
		}
	}
}

// simTraces plays a small real sweep and returns its session traces
// concatenated into one stream, with the number of sessions in it.
func simTraces(t *testing.T) ([]byte, int) {
	t.Helper()
	dir := t.TempDir()
	_, err := sim.Run(sim.Sweep{
		Videos: []*video.Manifest{video.Generate(video.GenParams{
			ID: "sw", Rows: 6, Cols: 6, NumChunks: 5,
			TargetQP42Mbps: 1, TargetQP22Mbps: 8, Seed: 3,
		})},
		Users: []*trace.HeadTrace{
			trace.GenerateHead(trace.HeadGenParams{UserID: "u1", Class: trace.MotionLow, Duration: 5 * time.Second, Seed: 1}),
			trace.GenerateHead(trace.HeadGenParams{UserID: "u2", Class: trace.MotionHigh, Duration: 5 * time.Second, Seed: 2}),
		},
		Bandwidths: []*trace.BandwidthTrace{
			{ID: "dsl-1", SamplePeriod: time.Second, Mbps: []float64{4}},
			{ID: "fiber-1", SamplePeriod: time.Second, Mbps: []float64{15}},
		},
		Schemes:  []string{"dragonfly"},
		TraceDir: dir,
		Workers:  2,
	})
	if err != nil {
		t.Fatalf("sim.Run: %v", err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil || len(files) == 0 {
		t.Fatalf("sweep traces: %v, %v", files, err)
	}
	sort.Strings(files)
	var body []byte
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		body = append(body, b...)
	}
	return body, len(files)
}

func qualityLines(b *strings.Builder, v, from, n int) {
	for i := from; i < from+n; i++ {
		fmt.Fprintf(b, `{"v":%d,"t_ms":%d,"ev":"quality","n":%d}`+"\n", v, i*33, 3000+i)
	}
}

// TestFoldEntryPointsAgree: the same stream through every entry point leaves
// the same rollup, the same ing_* metrics and the same line count — over a
// real sweep's traces, over streams built to put each piece of per-session
// state on a batch boundary, and over streams built to put every kind of
// line end on a read boundary.
func TestFoldEntryPointsAgree(t *testing.T) {
	type want struct{ sessions, events, rejected, bad int64 }
	type stream struct {
		name  string
		body  string
		who   func(entryPoint string) bool // nil: every entry point
		want  want
		check func(t *testing.T, ru Rollup)
	}
	var streams []stream

	simBody, simSessions := simTraces(t)
	simLines := int64(bytes.Count(simBody, []byte("\n")))
	if simLines <= 2*foldBatchSize {
		t.Fatalf("sim stream has %d lines; want several batches", simLines)
	}
	streams = append(streams, stream{
		name: "sim sweep traces", body: string(simBody),
		want: want{int64(simSessions), simLines, 0, 0},
	})

	var b strings.Builder
	// Three rejected lines shift the batch boundary off the pending bound:
	// the buffer overflows on the stream's 260th line, in the second batch.
	qualityLines(&b, 2, 0, 3)
	qualityLines(&b, 1, 0, maxPending+40)
	streams = append(streams, stream{
		name: "headerless, longer than maxPending", body: b.String(),
		want: want{1, maxPending + 40, 3, 0},
		check: func(t *testing.T, ru Rollup) {
			if cr := ru.Cohorts[unknownCohort]; cr.QualityDB.Count != maxPending+40 || cr.Events != maxPending+40 {
				t.Errorf("unknown cohort = %d quality / %d events, want %d of each", cr.QualityDB.Count, cr.Events, maxPending+40)
			}
		},
	})

	b.Reset()
	b.WriteString(`{"v":1,"t_ms":0,"ev":"session","video":"v1","cohort":"a:net"}` + "\n")
	qualityLines(&b, 1, 0, foldBatchSize+30)
	b.WriteString(`{"v":1,"t_ms":9000,"ev":"outage"}` + "\n") // left open by the first session
	b.WriteString(`{"v":1,"t_ms":0,"ev":"session","video":"v2","cohort":"b:net"}` + "\n")
	b.WriteString(`{"v":1,"t_ms":9500,"ev":"reconnect","n":3}` + "\n") // must not pair across the header
	qualityLines(&b, 1, 0, 20)
	streams = append(streams, stream{
		name: "second header mid-body", body: b.String(),
		want: want{2, foldBatchSize + 30 + 20 + 4, 0, 0},
		check: func(t *testing.T, ru Rollup) {
			a, bb := ru.Cohorts["a:net"], ru.Cohorts["b:net"]
			if a.QualityDB.Count != foldBatchSize+30 || bb.QualityDB.Count != 20 {
				t.Errorf("quality counts a=%d b=%d, want %d and 20", a.QualityDB.Count, bb.QualityDB.Count, foldBatchSize+30)
			}
			if a.OutageMS.Count+bb.OutageMS.Count != 0 {
				t.Errorf("an outage was paired across a session header: a=%d b=%d", a.OutageMS.Count, bb.OutageMS.Count)
			}
		},
	})

	b.Reset()
	b.WriteString(`{"v":2,"t_ms":0,"ev":"session","cohort":"wrong:version"}` + "\n")
	b.WriteString(`{"v":1,"t_ms":0,"ev":"session","cohort":"a:net"}` + "\n")
	for i := 0; i < foldBatchSize; i++ {
		qualityLines(&b, 1, i, 2)
		qualityLines(&b, i%3*2, i, 1) // v = 0, 2, 4
	}
	streams = append(streams, stream{
		name: "other schema versions interleaved", body: b.String(),
		want: want{1, 1 + 2*foldBatchSize, 1 + foldBatchSize, 0},
		check: func(t *testing.T, ru Rollup) {
			if len(ru.Cohorts) != 1 || ru.Cohorts["a:net"].QualityDB.Count != 2*foldBatchSize {
				t.Errorf("cohorts = %v, want a:net alone with %d quality samples", ru.Cohorts, 2*foldBatchSize)
			}
		},
	})

	b.Reset()
	b.WriteString(`{"v":1,"t_ms":0,"ev":"session","cohort":"a:net"}` + "\n")
	qualityLines(&b, 1, 0, foldBatchSize-2)
	b.WriteString(`{"v":1,"t_ms":10000,"ev":"outage"}` + "\n") // the first batch's last event
	qualityLines(&b, 1, 0, 10)
	b.WriteString(`{"v":1,"t_ms":11300,"ev":"reconnect","n":3}` + "\n")
	streams = append(streams, stream{
		name: "outage open across a batch boundary", body: b.String(),
		want: want{1, foldBatchSize + 11, 0, 0},
		check: func(t *testing.T, ru Rollup) {
			if o := ru.Cohorts["a:net"].OutageMS; o.Count != 1 || o.P50 < 1200 || o.P50 > 1400 {
				t.Errorf("outage dist = %+v, want one outage of 1300 ms", o)
			}
		},
	})

	b.Reset()
	qualityLines(&b, 1, 0, 10)
	b.WriteString(`{"v":1,"t_ms":0,"ev":"session","cohort":"a:net"}` + "\n")
	qualityLines(&b, 1, 0, 5)
	streams = append(streams, stream{
		name: "events ahead of the header", body: b.String(),
		want: want{1, 16, 0, 0},
		check: func(t *testing.T, ru Rollup) {
			// What came before the header is some other session's tail.
			if cr := ru.Cohorts["a:net"]; cr.QualityDB.Count != 5 || cr.Events != 6 {
				t.Errorf("a:net = %d quality / %d events, want 5 / 6", cr.QualityDB.Count, cr.Events)
			}
		},
	})

	notEvent := func(entryPoint string) bool { return entryPoint != "Event" }
	header := func(cohort string) string {
		return `{"v":1,"t_ms":0,"ev":"session","video":"v1","cohort":"` + cohort + `"}`
	}
	// longHeader is a:net's header grown to n bytes by its video id.
	longHeader := func(n int) string {
		return strings.Replace(header("a:net"), "v1", strings.Repeat("v", n-len(header("a:net"))+2), 1)
	}

	b.Reset()
	b.WriteString(header("a:net") + "\r\n\r\n   \n\n\t\r\n")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&b, `{"v":1,"t_ms":%d,"ev":"quality","n":%d}`+"\r\n", i*33, 3000+i)
	}
	b.WriteString("not json\r\n")
	b.WriteString(`{"v":1,"t_ms":2000,"ev":"stall"}`) // the stream ends without a newline
	streams = append(streams, stream{
		name: "CRLF, blank lines, no trailing newline", body: b.String(), who: notEvent,
		want: want{1, 42, 0, 1},
	})

	// A canonical object is decoded in place only when its newline follows
	// it at once or after one '\r'; after anything else the line is split
	// off and decoded whole, as Line decodes it: JSON white space is
	// allowed, other bytes make it a bad line.
	b.Reset()
	b.WriteString(header("a:net") + "\n")
	for i, tail := range []string{"\r", " ", "\t", "x", `{"v":1,"t_ms":1,"ev":"stall"}`, ",", "}", ""} {
		fmt.Fprintf(&b, `{"v":1,"t_ms":%d,"ev":"quality","n":%d}%s`+"\n", i*33, 3000+i, tail)
	}
	streams = append(streams, stream{
		name: "bytes between a canonical object and its newline", body: b.String(), who: notEvent,
		want: want{1, 5, 0, 4},
		check: func(t *testing.T, ru Rollup) {
			if n := ru.Cohorts["a:net"].QualityDB.Count; n != 4 {
				t.Errorf("quality count = %d, want 4", n)
			}
		},
	})

	b.Reset()
	b.WriteString(longHeader(100_000) + "\n")
	qualityLines(&b, 1, 0, 4000) // several read buffers of ordinary lines behind it
	streams = append(streams, stream{
		name: "a line longer than the read buffer", body: b.String(),
		want: want{1, 4001, 0, 0},
	})

	b.Reset()
	b.WriteString(header("a:net") + "\n")
	qualityLines(&b, 1, 0, 300)
	b.WriteString(strings.Repeat("x", 2<<20) + "\n")
	b.WriteString(header("b:net") + "\n")
	qualityLines(&b, 1, 0, 20)
	streams = append(streams, stream{
		name: "an over-long line between two sessions", body: b.String(), who: notEvent,
		want: want{2, 322, 0, 1},
		check: func(t *testing.T, ru Rollup) {
			if a, bb := ru.Cohorts["a:net"], ru.Cohorts["b:net"]; a.QualityDB.Count != 300 || bb.QualityDB.Count != 20 {
				t.Errorf("quality counts a=%d b=%d, want 300 and 20", a.QualityDB.Count, bb.QualityDB.Count)
			}
		},
	})

	// The bound is on the line, not on how the reads cut it: maxLine bytes
	// are a line, one more is dropped. (Line has no bound: it is handed lines.)
	streams = append(streams, stream{
		name: "lines of maxLine and maxLine+1 bytes", who: splits,
		body: longHeader(maxLine) + "\n" + longHeader(maxLine+1) + "\n" + `{"v":1,"t_ms":5,"ev":"stall"}` + "\n" + longHeader(maxLine+1),
		want: want{1, 2, 0, 2},
	})

	for _, s := range streams {
		t.Run(s.name, func(t *testing.T) {
			var first foldState
			firstName := ""
			wantLines := strings.Count(s.body, "\n")
			if !strings.HasSuffix(s.body, "\n") {
				wantLines++
			}
			for _, ep := range foldEntryPoints {
				if s.who != nil && !s.who(ep.name) {
					continue
				}
				reg := obs.NewRegistry()
				agg := New(Config{Obs: reg})
				if lines := ep.fold(t, agg, []byte(s.body)); lines >= 0 && lines != wantLines {
					t.Errorf("%s consumed %d lines, the stream has %d", ep.name, lines, wantLines)
				}
				got := observe(agg, reg)
				if firstName == "" {
					first, firstName = got, ep.name
					w := want{got.Metrics["ing_sessions"], got.Metrics["ing_events"], got.Metrics["ing_rejected_events"], got.Metrics["ing_bad_lines"]}
					if w != s.want {
						t.Errorf("%s: sessions/events/rejected/bad lines = %+v, want %+v", ep.name, w, s.want)
					}
					var sessions int64
					for _, cr := range got.Rollup.Cohorts {
						sessions += cr.Sessions
					}
					if sessions != s.want.sessions {
						t.Errorf("%s: rollup holds %d sessions, want %d", ep.name, sessions, s.want.sessions)
					}
					if s.check != nil {
						s.check(t, got.Rollup)
					}
					continue
				}
				if !reflect.DeepEqual(got, first) {
					t.Errorf("%s and %s disagree:\n%+v\n%+v", ep.name, firstName, got, first)
				}
			}
		})
	}
}

// TestBlankLinesSkippedAtEveryEntryPoint: a whitespace-only line is not a
// trace line, whichever way the stream arrives. (FoldReader used to count
// one as ing_bad_lines where the watcher skipped it.)
func TestBlankLinesSkippedAtEveryEntryPoint(t *testing.T) {
	body := []byte(`{"v":1,"t_ms":0,"ev":"session","cohort":"a:net"}` + "\n" +
		"   \n" +
		"\t\r\n" +
		`{"v":1,"t_ms":10,"ev":"quality","n":4200}` + "\n" +
		"\n" +
		"not json\n" +
		"\r\n")
	for _, ep := range foldEntryPoints {
		if ep.name == "Event" {
			continue // takes decoded events, not lines
		}
		reg := obs.NewRegistry()
		agg := New(Config{Obs: reg})
		ep.fold(t, agg, body)
		got := observe(agg, reg).Metrics
		if got["ing_bad_lines"] != 1 || got["ing_events"] != 2 {
			t.Errorf("%s: ing_bad_lines = %d, ing_events = %d, want 1 and 2", ep.name, got["ing_bad_lines"], got["ing_events"])
		}
	}
}

// TestPushBytesCountsChunkedBody: a chunked POST has no Content-Length
// (-1), which ing_push_bytes used to add as is.
func TestPushBytesCountsChunkedBody(t *testing.T) {
	reg := obs.NewRegistry()
	agg := New(Config{Obs: reg})
	ts := httptest.NewServer(agg.handler())
	defer ts.Close()
	body, _ := sessionJSONL(t, "low:net", rand.New(rand.NewSource(5)), 30)

	post := func(r io.Reader) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/ingest", r)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("POST /ingest: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /ingest status = %v", resp.Status)
		}
	}
	post(io.MultiReader(bytes.NewReader(body))) // length unknown to the client: chunked
	if got := reg.Snapshot().Counters["ing_push_bytes"]; got != int64(len(body)) {
		t.Fatalf("ing_push_bytes after a chunked push = %d, want %d", got, len(body))
	}
	post(bytes.NewReader(body))
	if got := reg.Snapshot().Counters["ing_push_bytes"]; got != 2*int64(len(body)) {
		t.Fatalf("ing_push_bytes after a sized push = %d, want %d", got, 2*len(body))
	}
}

// TestPushSurvivesOverlongLine: a pushed body with a 2 MiB newline-free line
// between two sessions loses that line and nothing else — as a tailed file
// always has. (POST /ingest used to fold session A, answer 400 for the
// scanner's ErrTooLong and never read session B.)
func TestPushSurvivesOverlongLine(t *testing.T) {
	reg := obs.NewRegistry()
	agg := New(Config{Obs: reg})
	ts := httptest.NewServer(agg.handler())
	defer ts.Close()
	a, _ := sessionJSONL(t, "a:net", rand.New(rand.NewSource(1)), 30)
	b, _ := sessionJSONL(t, "b:net", rand.New(rand.NewSource(2)), 30)
	body := bytes.Join([][]byte{a, bytes.Repeat([]byte{'x'}, 2<<20), []byte("\n"), b}, nil)

	resp, err := http.Post(ts.URL+"/ingest", "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /ingest: %v", err)
	}
	reply, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	wantReply := fmt.Sprintf("{\"lines\":%d}\n", bytes.Count(body, []byte("\n")))
	if resp.StatusCode != http.StatusOK || string(reply) != wantReply {
		t.Errorf("POST /ingest = %v %q, want 200 %q", resp.Status, reply, wantReply)
	}
	ru := agg.Rollup()
	if ru.Cohorts["a:net"].QualityDB.Count != 30 || ru.Cohorts["b:net"].QualityDB.Count != 30 {
		t.Errorf("quality samples a=%d b=%d, want 30 of each",
			ru.Cohorts["a:net"].QualityDB.Count, ru.Cohorts["b:net"].QualityDB.Count)
	}
	c := reg.Snapshot().Counters
	if c["ing_sessions"] != 2 || c["ing_bad_lines"] != 1 || c["ing_push_errs"] != 0 || c["ing_push_bytes"] != int64(len(body)) {
		t.Errorf("ing_sessions = %d, ing_bad_lines = %d, ing_push_errs = %d, ing_push_bytes = %d; want 2, 1, 0, %d",
			c["ing_sessions"], c["ing_bad_lines"], c["ing_push_errs"], c["ing_push_bytes"], len(body))
	}
}

// TestSessionFoldLineZeroAlloc: once its header is in, folding a line our
// writers emit costs no allocation — not for the event, not for its kind.
func TestSessionFoldLineZeroAlloc(t *testing.T) {
	agg := New(Config{Obs: obs.NewRegistry()})
	sf := agg.newSession()
	sf.Line([]byte(`{"v":1,"t_ms":0,"ev":"session","video":"v1","cohort":"low:net"}`))
	lines := [][]byte{
		[]byte(`{"v":1,"t_ms":1234.567,"ev":"quality","chunk":3,"n":4211}`),
		[]byte(`{"v":1,"t_ms":1300,"ev":"fetch","chunk":4,"tile":17,"n":52811}`),
		[]byte(`{"v":1,"t_ms":1400,"ev":"outage"}`),
		[]byte(`{"v":1,"t_ms":1900,"ev":"reconnect","n":12}`),
	}
	if n := testing.AllocsPerRun(200, func() {
		for _, line := range lines {
			sf.Line(line)
		}
	}); n != 0 {
		t.Fatalf("sessionFold.Line allocates %v per %d canonical lines, want 0", n, len(lines))
	}
	if cr := agg.Rollup().Cohorts["low:net"]; cr.QualityDB.Count == 0 || cr.OutageMS.Count != cr.QualityDB.Count {
		t.Fatalf("lines were not folded: %+v", cr)
	}
}

// TestFoldReaderCRLFAllocatesAsLF: a stream whose lines end in "\r\n" is
// decoded in place like one ending in "\n", so folding it allocates no
// more; a line handed to json.Unmarshal instead would allocate its kind.
func TestFoldReaderCRLFAllocatesAsLF(t *testing.T) {
	body, _ := sessionJSONL(t, "low:net", rand.New(rand.NewSource(3)), 20)
	allocs := func(body []byte) float64 {
		agg := New(Config{Obs: obs.NewRegistry()})
		return testing.AllocsPerRun(20, func() {
			if _, err := agg.FoldReader(bytes.NewReader(body)); err != nil {
				t.Fatal(err)
			}
		})
	}
	lf, crlf := allocs(body), allocs(bytes.ReplaceAll(body, []byte("\n"), []byte("\r\n")))
	if crlf > lf {
		t.Fatalf("FoldReader allocates %v per CRLF stream, %v per LF one", crlf, lf)
	}
}

// TestConcurrentFoldReadersExactTotals: four FoldReaders, each body several
// batches long, beside a Rollup poller (scripts/ci.sh runs this under
// -race). A poll may land between two batches of one body but never sees
// a count go backwards, and nothing is lost or folded twice.
func TestConcurrentFoldReadersExactTotals(t *testing.T) {
	const readers, perReader, frames = 4, 6, 3 * foldBatchSize
	reg := obs.NewRegistry()
	agg := New(Config{Obs: reg})
	bodies := make([][]byte, readers)
	for i := range bodies {
		bodies[i], _ = sessionJSONL(t, fmt.Sprintf("c%d:net", i%2), rand.New(rand.NewSource(int64(i))), frames)
	}
	linesPerBody := int64(bytes.Count(bodies[0], []byte("\n")))

	var wg sync.WaitGroup
	for _, body := range bodies {
		wg.Add(1)
		go func(body []byte) {
			defer wg.Done()
			for j := 0; j < perReader; j++ {
				if n, err := agg.FoldReader(bytes.NewReader(body)); err != nil || int64(n) != linesPerBody {
					t.Errorf("FoldReader = %d, %v; want %d lines", n, err, linesPerBody)
					return
				}
			}
		}(body)
	}
	stop, polled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(polled)
		last := map[string]CohortRollup{}
		for {
			for name, cr := range agg.Rollup().Cohorts {
				if p := last[name]; cr.Events < p.Events || cr.Sessions < p.Sessions || cr.QualityDB.Count < p.QualityDB.Count {
					t.Errorf("cohort %s went backwards: %+v after %+v", name, cr, p)
					return
				}
				last[name] = cr
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-polled

	var sessions, events int64
	var quality uint64
	for _, cr := range agg.Rollup().Cohorts {
		sessions += cr.Sessions
		events += cr.Events
		quality += cr.QualityDB.Count
	}
	const total = readers * perReader
	if sessions != total || events != total*linesPerBody || quality != total*frames {
		t.Errorf("rollup: %d sessions, %d events, %d quality samples; want %d, %d, %d",
			sessions, events, quality, total, total*linesPerBody, total*frames)
	}
	snap := reg.Snapshot()
	if snap.Counters["ing_sessions"] != total || snap.Counters["ing_events"] != total*linesPerBody {
		t.Errorf("ing_sessions = %d, ing_events = %d; want %d, %d",
			snap.Counters["ing_sessions"], snap.Counters["ing_events"], total, total*linesPerBody)
	}
}

// FuzzFoldReader feeds FoldReader bytes no writer of ours produced: it must
// not panic, must report every line of the input, every line must be
// accounted for exactly once — blank, bad, rejected, or folded — and none of
// that may depend on how the reads cut the input. The fold must also leave
// what the per-line path leaves (the input split on newlines by hand, each
// line through sessionFold.Line), so whether a line is decoded in place or
// split off first changes nothing a reader sees.
func FuzzFoldReader(f *testing.F) {
	body, _ := sessionJSONL(f, "low:net", rand.New(rand.NewSource(9)), 4)
	f.Add(body)
	f.Add(bytes.ReplaceAll(body, []byte("\n"), []byte("\r\n")))
	f.Add(bytes.TrimSuffix(body, []byte("\n")))
	f.Add(bytes.ReplaceAll(body, []byte(`"v":1`), []byte(`"v":2`)))
	f.Add(bytes.ReplaceAll(body, []byte(`"ev":"session"`), []byte(`"ev":"quality"`)))
	f.Add([]byte("\n\n \n\t\n"))
	f.Add([]byte("{}\nnull\n[]\n{\"ev\":\"\"}\n{\"ev\":\"x\"}\n{\"v\":1,\"ev\":\"x\"}"))
	f.Add([]byte("{\"v\":1,\"ev\":\"session\",\"cohort\":\"\\u00e9\"}\n{\"v\":1,\"ev\":\"outage\",\"t_ms\":1e999}\n"))
	f.Add([]byte{0xff, 0x00, '\n', '{', '\n', '}'})
	f.Add([]byte("{\r\n\r{\n {\n"))
	f.Add(mangledLines(body))
	f.Fuzz(func(t *testing.T, data []byte) {
		reg := obs.NewRegistry()
		agg := New(Config{Obs: reg})
		lines := foldReader(t, agg, bytes.NewReader(data))
		segs := bytes.Split(data, []byte("\n"))
		if len(segs[len(segs)-1]) == 0 {
			segs = segs[:len(segs)-1] // no line after the last newline
		}
		blank := 0
		for _, s := range segs {
			if len(s) <= maxLine && len(bytes.TrimSpace(s)) == 0 {
				blank++
			}
		}
		if lines != len(segs) {
			t.Fatalf("FoldReader returned %d lines, input has %d", lines, len(segs))
		}
		c := reg.Snapshot().Counters
		if got := c["ing_events"] + c["ing_rejected_events"] + c["ing_bad_lines"]; got != int64(lines-blank) {
			t.Fatalf("%d lines (%d blank), but events %d + rejected %d + bad %d = %d",
				lines, blank, c["ing_events"], c["ing_rejected_events"], c["ing_bad_lines"], got)
		}

		reg2 := obs.NewRegistry()
		agg2 := New(Config{Obs: reg2})
		ragged := &raggedReader{bytes.NewReader(data), rand.New(rand.NewSource(int64(len(data)))), 40}
		if n := foldReader(t, agg2, ragged); n != lines {
			t.Fatalf("FoldReader returned %d lines from ragged reads, %d from whole ones", n, lines)
		}
		whole := observe(agg, reg)
		if cut := observe(agg2, reg2); !reflect.DeepEqual(whole, cut) {
			t.Fatalf("whole and ragged reads disagree:\n%+v\n%+v", whole, cut)
		}

		for _, s := range segs {
			if len(s) > maxLine {
				return // the splitter drops what Line, handed lines, has no bound for
			}
		}
		reg3 := obs.NewRegistry()
		agg3 := New(Config{Obs: reg3})
		sf := agg3.newSession()
		for _, s := range segs {
			sf.Line(s)
		}
		sf.closeSession()
		if byLine := observe(agg3, reg3); !reflect.DeepEqual(whole, byLine) {
			t.Fatalf("FoldReader and the per-line path disagree:\n%+v\n%+v", whole, byLine)
		}
	})
}

// mangledLines is body with its lines spoiled in turn, in the ways a line
// can miss the in-place decode: a CRLF ending, a stray byte between the
// object and its newline, and a key out of the writer's order.
func mangledLines(body []byte) []byte {
	var out []byte
	for i, line := range bytes.SplitAfter(body, []byte("\n")) {
		obj := bytes.TrimSuffix(line, []byte("\n"))
		switch i % 4 {
		case 1:
			line = append(obj[:len(obj):len(obj)], "\r\n"...)
		case 2:
			line = append(obj[:len(obj):len(obj)], " \n"...)
		case 3:
			line = bytes.Replace(line, []byte(`{"v":1,"t_ms":`), []byte(`{"t_ms":`), 1)
			line = bytes.Replace(line, []byte(`}`), []byte(`,"v":1}`), 1)
		}
		out = append(out, line...)
	}
	return out
}

// pushBody posts body to agg's /ingest and fails the test unless it is
// accepted.
func pushBody(t *testing.T, agg *Aggregator, body []byte) {
	t.Helper()
	ts := httptest.NewServer(agg.handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/ingest", "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /ingest: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /ingest = %v", resp.Status)
	}
}

// TestPushOfManyLabelsKeepsCohortCap: a push of 1 100 sessions, each with
// its own label, folds into exactly maxFeedbackCohorts cohorts — the last
// slot is unknownCohort's, holding the 77 refused sessions — with every
// session counted, so a Feedback reading the rollup truncates nothing.
// (The fold used to build five sketches per label, without bound.)
func TestPushOfManyLabelsKeepsCohortCap(t *testing.T) {
	reg := obs.NewRegistry()
	agg := New(Config{Obs: reg})
	const sessions = 1100
	var body bytes.Buffer
	for i := 0; i < sessions; i++ {
		fmt.Fprintf(&body, "{\"v\":%d,\"t_ms\":0,\"ev\":\"session\",\"cohort\":\"label-%04d\"}\n", obs.TraceSchemaVersion, i)
		fmt.Fprintf(&body, "{\"v\":%d,\"t_ms\":10,\"ev\":\"quality\",\"n\":4200}\n", obs.TraceSchemaVersion)
	}
	pushBody(t, agg, body.Bytes())

	ru := agg.Rollup()
	var folded int64
	for _, cr := range ru.Cohorts {
		folded += cr.Sessions
	}
	refused := int64(sessions - (maxFeedbackCohorts - 1))
	if len(ru.Cohorts) != maxFeedbackCohorts || folded != sessions || ru.Cohorts[unknownCohort].Sessions != refused {
		t.Errorf("%d cohorts holding %d sessions, %d unknown; want %d holding %d, %d unknown",
			len(ru.Cohorts), folded, ru.Cohorts[unknownCohort].Sessions, maxFeedbackCohorts, sessions, refused)
	}
	if c := reg.Snapshot().Counters; c["ing_sessions"] != sessions || c["ing_rejected_cohorts"] != refused {
		t.Errorf("ing_sessions = %d, ing_rejected_cohorts = %d; want %d, %d",
			c["ing_sessions"], c["ing_rejected_cohorts"], sessions, refused)
	}
	fbReg := obs.NewRegistry()
	if err := NewFeedback(FeedbackConfig{TargetDB: 40, Obs: fbReg}).apply(ru); err != nil {
		t.Fatal(err)
	}
	if got := fbReg.Snapshot().Counters["srv_qoe_rejected_cohorts"]; got != 0 {
		t.Errorf("Feedback refused %d cohorts of the capped rollup, want 0", got)
	}
}

// TestOverlongLabelFoldsUnknown: a 200-byte cohort label is refused and its
// session folds under unknownCohort.
func TestOverlongLabelFoldsUnknown(t *testing.T) {
	reg := obs.NewRegistry()
	agg := New(Config{Obs: reg})
	body, _ := sessionJSONL(t, strings.Repeat("x", 200), rand.New(rand.NewSource(1)), 30)
	pushBody(t, agg, body)

	ru := agg.Rollup()
	if cr, ok := ru.Cohorts[unknownCohort]; len(ru.Cohorts) != 1 || !ok || cr.Sessions != 1 || cr.QualityDB.Count != 30 {
		t.Errorf("rollup cohorts %v, want one session of 30 samples under %q", ru.Cohorts, unknownCohort)
	}
	if got := reg.Snapshot().Counters["ing_rejected_cohorts"]; got != 1 {
		t.Errorf("ing_rejected_cohorts = %d, want 1", got)
	}
}
