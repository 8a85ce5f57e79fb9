package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// IntervalLogOptions describes the column layout of a throughput log of the
// kind the paper's datasets ship ([45] Belgian 4G, [40] Irish 5G): one
// line per measurement interval, whitespace- or comma-separated, with a
// timestamp column (in milliseconds, as both datasets log it) and a
// bytes-transferred (or kbps/mbps) column.
type IntervalLogOptions struct {
	// TimestampCol and ValueCol are zero-based column indexes.
	TimestampCol int
	ValueCol     int
	// ValueIsBytes interprets the value column as bytes transferred during
	// the interval; otherwise it is taken as kilobits per second.
	ValueIsBytes bool
	// Comma switches the separator from whitespace to commas.
	Comma bool
	ID    string
}

const (
	// intervalBin is the uniform sample period of an imported trace.
	intervalBin = time.Second
	// maxIntervalBins bounds the imported trace (48 days of 1 s bins), so
	// two far-apart timestamps cannot make the importer allocate gigabytes
	// of empty bins.
	maxIntervalBins = 1 << 22
)

// ReadIntervalLog parses a raw throughput measurement log into a uniformly
// sampled BandwidthTrace: measurements are bucketed into 1 s bins
// (relative to the first timestamp) and averaged. Lines that fail to parse,
// or whose value is negative, NaN or infinite, are skipped; the log must
// yield at least two usable measurements. A bin averaging past the largest
// float64 reads the largest finite rate.
func ReadIntervalLog(r io.Reader, o IntervalLogOptions) (*BandwidthTrace, error) {
	type sample struct {
		at   time.Duration
		mbps float64
	}
	var samples []sample
	sc := bufio.NewScanner(r)
	var prevTS, firstTS time.Duration
	first := true
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var fields []string
		if o.Comma {
			fields = strings.Split(line, ",")
			for i := range fields {
				fields[i] = strings.TrimSpace(fields[i])
			}
		} else {
			fields = strings.Fields(line)
		}
		if o.TimestampCol >= len(fields) || o.ValueCol >= len(fields) {
			continue
		}
		tsRaw, err1 := strconv.ParseFloat(fields[o.TimestampCol], 64)
		val, err2 := strconv.ParseFloat(fields[o.ValueCol], 64)
		// 9e12 ms is the year 2255 and the last timestamp whose nanoseconds
		// fit a Duration; the negated forms also skip NaN.
		if err1 != nil || err2 != nil || !(val >= 0 && val <= math.MaxFloat64) || !(tsRaw >= 0 && tsRaw <= 9e12) {
			continue
		}
		ts := time.Duration(tsRaw * float64(time.Millisecond))
		if first {
			firstTS = ts
			prevTS = ts
			first = false
			if !o.ValueIsBytes {
				samples = append(samples, sample{at: 0, mbps: val / 1000})
			}
			continue
		}
		at := ts - firstTS
		var mbps float64
		if o.ValueIsBytes {
			dt := (ts - prevTS).Seconds()
			if dt <= 0 {
				prevTS = ts
				continue
			}
			mbps = val * 8 / dt / 1e6
		} else {
			mbps = val / 1000 // kbps -> Mbps
		}
		samples = append(samples, sample{at: at, mbps: mbps})
		prevTS = ts
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: read interval log: %w", err)
	}
	if len(samples) < 2 {
		return nil, fmt.Errorf("trace: interval log has %d usable measurements, need >= 2", len(samples))
	}
	sort.Slice(samples, func(a, b int) bool { return samples[a].at < samples[b].at })

	// Bucket into uniform bins from the first line's timestamp, or from an
	// earlier one if the log is out of order; empty bins inherit the
	// previous bin's rate (measurement gaps, not outages, in these datasets).
	base := min(samples[0].at, 0)
	span := samples[len(samples)-1].at - base
	if span/intervalBin >= maxIntervalBins {
		return nil, fmt.Errorf("trace: interval log spans %v, over %d bins of %v", span, maxIntervalBins, intervalBin)
	}
	n := int(span/intervalBin) + 1
	sums := make([]float64, n)
	counts := make([]int, n)
	for _, s := range samples {
		i := int((s.at - base) / intervalBin)
		sums[i] += s.mbps
		counts[i]++
	}
	mbps := make([]float64, n)
	prev := 0.0
	for i := range mbps {
		if counts[i] > 0 {
			mbps[i] = min(sums[i]/float64(counts[i]), math.MaxFloat64)
			prev = mbps[i]
		} else {
			mbps[i] = prev
		}
	}
	id := o.ID
	if id == "" {
		id = "imported"
	}
	return &BandwidthTrace{ID: id, SamplePeriod: intervalBin, Mbps: mbps}, nil
}
