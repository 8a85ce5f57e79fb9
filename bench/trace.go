package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one interval recorded by the driver around a call into a layer.
// Repeated calls into one layer from the same parent (the 1 440 frame reads
// of one batch) fold into a single span: Calls counts them, Busy sums their
// durations, and Start/End bracket the first and the last. For a plain
// begin/end span Calls is 1 and Busy is End-Start.
type span struct {
	Name    string        `json:"name"`
	ID      int           `json:"id"`
	Parent  int           `json:"parent"` // -1 for a root span
	Session int64         `json:"session"`
	Worker  int           `json:"worker"`
	Start   time.Duration `json:"start_ns"`
	End     time.Duration `json:"end_ns"`
	Busy    time.Duration `json:"busy_ns"`
	Calls   int64         `json:"calls"`
}

// tracer records one worker's spans in memory. A nil *tracer is the untraced
// run: every method is a no-op and now() does not read the clock, so the
// untraced hot path pays one nil check per boundary.
type tracer struct {
	epoch  time.Time
	worker int
	spans  []span
}

func newTracer(epoch time.Time, worker int) *tracer {
	return &tracer{epoch: epoch, worker: worker, spans: make([]span, 0, 1<<16)}
}

// now reads the clock only when tracing.
func (t *tracer) now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// begin opens a span and returns its id (-1 when untraced).
func (t *tracer) begin(name string, parent int, session int64) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{
		Name: name, ID: len(t.spans), Parent: parent, Session: session,
		Worker: t.worker, Start: time.Since(t.epoch), Calls: 1,
	})
	return len(t.spans) - 1
}

// end closes a span opened with begin.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.End = time.Since(t.epoch)
	s.Busy = s.End - s.Start
}

// group opens a folded span with no calls yet; call adds to it.
func (t *tracer) group(name string, parent int, session int64) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{
		Name: name, ID: len(t.spans), Parent: parent, Session: session,
		Worker: t.worker, Start: -1,
	})
	return len(t.spans) - 1
}

// call folds one call that started at t0 (from now()) and ends now into a
// group span, and returns how long the call took.
func (t *tracer) call(id int, t0 time.Time) time.Duration {
	if t == nil {
		return 0
	}
	end := time.Now()
	s := &t.spans[id]
	if s.Start < 0 {
		s.Start = t0.Sub(t.epoch)
	}
	s.End = end.Sub(t.epoch)
	s.Busy += end.Sub(t0)
	s.Calls++
	return end.Sub(t0)
}

// layerTimes is the outcome of a traced phase: per span name, the self time
// (busy minus the busy time of child spans), busy time and call count.
type layerTimes struct {
	self  map[string]time.Duration
	busy  map[string]time.Duration
	calls map[string]int64
	roots time.Duration // summed busy time of root spans
}

// attribute computes self times over every worker's spans. Groups that never
// saw a call are skipped.
func attribute(tracers []*tracer) layerTimes {
	lt := layerTimes{
		self:  map[string]time.Duration{},
		busy:  map[string]time.Duration{},
		calls: map[string]int64{},
	}
	for _, t := range tracers {
		if t == nil {
			continue
		}
		child := make([]time.Duration, len(t.spans))
		for _, s := range t.spans {
			if s.Calls > 0 && s.Parent >= 0 {
				child[s.Parent] += s.Busy
			}
		}
		for i, s := range t.spans {
			if s.Calls == 0 {
				continue
			}
			lt.self[s.Name] += s.Busy - child[i]
			lt.busy[s.Name] += s.Busy
			lt.calls[s.Name] += s.Calls
			if s.Parent < 0 {
				lt.roots += s.Busy
			}
		}
	}
	return lt
}

// busyEach returns the ascending per-span busy times (ms) of every span with
// the given name, for percentile figures over one layer's calls.
func busyEach(tracers []*tracer, name string) []float64 {
	var out []float64
	for _, t := range tracers {
		if t == nil {
			continue
		}
		for _, s := range t.spans {
			if s.Name == name && s.Calls > 0 {
				out = append(out, toMS(s.Busy))
			}
		}
	}
	sort.Float64s(out)
	return out
}

// writeSpans dumps every span as one JSON object per line.
func writeSpans(path string, tracers []*tracer) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace out: %w", err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("trace out: %w", cerr)
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range tracers {
		if t == nil {
			continue
		}
		for i := range t.spans {
			if t.spans[i].Calls == 0 {
				continue
			}
			if err := enc.Encode(&t.spans[i]); err != nil {
				return fmt.Errorf("trace out: %w", err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("trace out: %w", err)
	}
	return nil
}
