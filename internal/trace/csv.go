package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"
)

// csvLayout is one kind of sampled-trace CSV file: a header
// "# <idKey>=<id> period_ms=<period>", then one "t_ms,<value>…" row per
// sample, row i's t_ms being i × period_ms. A reader takes the period from
// the header, else from the gap between the first two rows, else the
// layout's default, and refuses a row whose t_ms is off that grid.
type csvLayout struct {
	kind   string        // "head" or "bandwidth", for errors
	idKey  string        // the header key of the trace's ID
	period time.Duration // the period when neither header nor rows give one
	cols   int           // value columns after t_ms
	min    float64       // the smallest value a row may hold
	want   string        // what a value must be, for errors
}

var (
	headCSV      = csvLayout{kind: "head", idKey: "user", period: headSamplePeriod, cols: 2, min: -math.MaxFloat64, want: "a finite angle"}
	bandwidthCSV = csvLayout{kind: "bandwidth", idKey: "id", period: 500 * time.Millisecond, cols: 1, want: "a finite rate >= 0"}
)

// maxPeriodMS is the longest sample period, in milliseconds, whose Duration
// does not wrap.
const maxPeriodMS = math.MaxInt64 / int64(time.Millisecond)

// write writes the header and n rows, row i holding value(i, c) for each
// column c, to four decimals.
func (l csvLayout) write(w io.Writer, id string, period time.Duration, n int, value func(i, c int) float64) error {
	bw := bufio.NewWriter(w)
	ms := period.Milliseconds()
	fmt.Fprintf(bw, "# %s=%s period_ms=%d\n", l.idKey, id, ms)
	var row []byte
	for i := 0; i < n; i++ {
		row = strconv.AppendInt(row[:0], int64(i)*ms, 10)
		for c := 0; c < l.cols; c++ {
			row = strconv.AppendFloat(append(row, ','), value(i, c), 'f', 4, 64)
		}
		bw.Write(append(row, '\n')) // a failed write sticks, and Flush reports it
	}
	return bw.Flush()
}

// read parses a file of the layout into its ID, its period and its rows'
// values, cols to a row. It refuses an empty trace and a value below min
// or not finite.
func (l csvLayout) read(r io.Reader) (id string, period time.Duration, vals []float64, err error) {
	fail := func(line int, format string, args ...any) (string, time.Duration, []float64, error) {
		return "", 0, nil, fmt.Errorf("trace: %s trace line %d: %s", l.kind, line, fmt.Sprintf(format, args...))
	}
	sc := bufio.NewScanner(r)
	var ms int64
	var times []int64
	var lines []int
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := strings.TrimSpace(sc.Text())
		if header, ok := strings.CutPrefix(line, "#"); ok {
			for _, f := range strings.Fields(header) {
				if v, ok := strings.CutPrefix(f, l.idKey+"="); ok {
					id = v
				}
				if v, ok := strings.CutPrefix(f, "period_ms="); ok {
					if ms, err = strconv.ParseInt(v, 10, 64); err != nil || ms <= 0 || ms > maxPeriodMS {
						return fail(lineNo, "bad period %q", v)
					}
				}
			}
			continue
		}
		if line == "" {
			continue
		}
		parts := strings.Split(line, ",")
		if len(parts) != 1+l.cols {
			return fail(lineNo, "%q: want t_ms and %d values", line, l.cols)
		}
		t, err := strconv.ParseInt(parts[0], 10, 64)
		if err != nil {
			return fail(lineNo, "bad t_ms %q", parts[0])
		}
		for _, p := range parts[1:] {
			v, err := strconv.ParseFloat(p, 64)
			if err != nil || !(v >= l.min && v <= math.MaxFloat64) { // the negated form also refuses NaN
				return fail(lineNo, "bad value %q: want %s", p, l.want)
			}
			vals = append(vals, v)
		}
		times, lines = append(times, t), append(lines, lineNo)
	}
	if err := sc.Err(); err != nil {
		return "", 0, nil, err
	}
	if len(times) == 0 {
		return "", 0, nil, fmt.Errorf("trace: empty %s trace", l.kind)
	}
	if ms == 0 { // no header period: the first two rows' gap, else the default
		ms = l.period.Milliseconds()
		if len(times) >= 2 && times[1]-times[0] > 0 && times[1]-times[0] <= maxPeriodMS {
			ms = times[1] - times[0]
		}
	}
	for i, t := range times {
		if t%ms != 0 || t/ms != int64(i) { // t == i × ms, without the product, which can wrap
			return fail(lines[i], "t_ms %d is not row %d × period_ms %d", t, i, ms)
		}
	}
	return id, time.Duration(ms) * time.Millisecond, vals, nil
}
