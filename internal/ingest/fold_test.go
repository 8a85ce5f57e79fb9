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

// The four ways a trace stream reaches the aggregator (the watcher twice:
// whole file in one scan, and cut mid-line across two).
var foldEntryPoints = []struct {
	name string
	fold func(t *testing.T, agg *Aggregator, body []byte)
}{
	{"Line", func(t *testing.T, agg *Aggregator, body []byte) {
		sf := agg.NewSession()
		defer sf.Close()
		for _, line := range bytes.Split(body, []byte("\n")) {
			sf.Line(line)
		}
	}},
	{"Event", func(t *testing.T, agg *Aggregator, body []byte) {
		sf := agg.NewSession()
		defer sf.Close()
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
	}},
	{"FoldReader", func(t *testing.T, agg *Aggregator, body []byte) {
		if _, err := agg.FoldReader(bytes.NewReader(body)); err != nil {
			t.Fatalf("FoldReader: %v", err)
		}
	}},
	{"Watcher", func(t *testing.T, agg *Aggregator, body []byte) {
		watchInPieces(t, agg, body, len(body))
	}},
	{"Watcher/two-scans", func(t *testing.T, agg *Aggregator, body []byte) {
		watchInPieces(t, agg, body, len(body)/2+7)
	}},
}

// watchInPieces appends body to a tailed file, cut bytes at a time, with a
// scan after each append.
func watchInPieces(t *testing.T, agg *Aggregator, body []byte, cut int) {
	t.Helper()
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

// TestFoldEntryPointsAgree: the same stream folded line by line, event by
// event, through FoldReader and through a Watcher leaves the same rollup
// and the same ing_* metrics — over a real sweep's traces and over streams
// built to put each piece of per-session state on a batch boundary.
func TestFoldEntryPointsAgree(t *testing.T) {
	type want struct{ sessions, events, rejected int64 }
	type stream struct {
		name  string
		body  string
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
		want: want{int64(simSessions), simLines, 0},
	})

	var b strings.Builder
	// Three rejected lines shift the batch boundary off the pending bound:
	// the buffer overflows on the stream's 260th line, in the second batch.
	qualityLines(&b, 2, 0, 3)
	qualityLines(&b, 1, 0, maxPending+40)
	streams = append(streams, stream{
		name: "headerless, longer than maxPending", body: b.String(),
		want: want{1, maxPending + 40, 3},
		check: func(t *testing.T, ru Rollup) {
			if cr := ru.Cohorts[UnknownCohort]; cr.QualityDB.Count != maxPending+40 || cr.Events != maxPending+40 {
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
		want: want{2, foldBatchSize + 30 + 20 + 4, 0},
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
		want: want{1, 1 + 2*foldBatchSize, 1 + foldBatchSize},
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
		want: want{1, foldBatchSize + 11, 0},
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
		want: want{1, 16, 0},
		check: func(t *testing.T, ru Rollup) {
			// What came before the header is some other session's tail.
			if cr := ru.Cohorts["a:net"]; cr.QualityDB.Count != 5 || cr.Events != 6 {
				t.Errorf("a:net = %d quality / %d events, want 5 / 6", cr.QualityDB.Count, cr.Events)
			}
		},
	})

	for _, s := range streams {
		t.Run(s.name, func(t *testing.T) {
			var first foldState
			for i, ep := range foldEntryPoints {
				reg := obs.NewRegistry()
				agg := New(Config{Obs: reg})
				ep.fold(t, agg, []byte(s.body))
				got := observe(agg, reg)
				if i == 0 {
					first = got
					w := want{got.Metrics["ing_sessions"], got.Metrics["ing_events"], got.Metrics["ing_rejected_events"]}
					if w != s.want || got.Metrics["ing_bad_lines"] != 0 {
						t.Errorf("%s: sessions/events/rejected = %+v (bad lines %d), want %+v (0)",
							ep.name, w, got.Metrics["ing_bad_lines"], s.want)
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
					t.Errorf("%s and %s disagree:\n%+v\n%+v", ep.name, foldEntryPoints[0].name, got, first)
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
	ts := httptest.NewServer(agg.Handler())
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

// TestSessionFoldLineZeroAlloc: once its header is in, folding a line our
// writers emit costs no allocation — not for the event, not for its kind.
func TestSessionFoldLineZeroAlloc(t *testing.T) {
	agg := New(Config{Obs: obs.NewRegistry()})
	sf := agg.NewSession()
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
		t.Fatalf("SessionFold.Line allocates %v per %d canonical lines, want 0", n, len(lines))
	}
	if cr := agg.Rollup().Cohorts["low:net"]; cr.QualityDB.Count == 0 || cr.OutageMS.Count != cr.QualityDB.Count {
		t.Fatalf("lines were not folded: %+v", cr)
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
// not panic, must report every line it scanned, and every scanned line must
// be accounted for exactly once — blank, bad, rejected, or folded.
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
	f.Fuzz(func(t *testing.T, data []byte) {
		reg := obs.NewRegistry()
		agg := New(Config{Obs: reg})
		lines, err := agg.FoldReader(bytes.NewReader(data))
		if err != nil {
			return // a line past the 1 MiB cap; what came before it is folded
		}
		segs := bytes.Split(data, []byte("\n"))
		if len(segs[len(segs)-1]) == 0 {
			segs = segs[:len(segs)-1] // no line after the last newline
		}
		blank := 0
		for _, s := range segs {
			if len(bytes.TrimSpace(s)) == 0 {
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
	})
}
