package experiments

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"dragonfly/internal/player"
	"dragonfly/internal/sim"
	"dragonfly/internal/stats"
)

// writeCDFCSV writes one empirical CDF per column: the header names the
// series, each row holds (value, cumulative fraction) pairs — the series a
// plotting tool needs to redraw the paper's distribution figures.
//
// Every write error is propagated (including short writes surfaced only at
// Flush and errors surfaced at Close), so a disk-full run fails loudly
// instead of leaving a silently truncated CSV behind.
func writeCDFCSV(path string, series map[string][]float64, maxPoints int) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("experiments: create %s: %w", path, err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("experiments: close %s: %w", path, cerr)
		}
	}()
	if err := writeCDFTo(f, series, maxPoints); err != nil {
		return fmt.Errorf("experiments: write %s: %w", path, err)
	}
	return nil
}

// writeCDFTo renders the CDF table to w through a buffered writer whose
// Flush error is checked; fmt errors inside the loop are sticky on the
// bufio.Writer, so checking Flush catches them all.
func writeCDFTo(w io.Writer, series map[string][]float64, maxPoints int) error {
	names := sortedNames(series)
	cdfs := make([][]stats.CDFPoint, len(names))
	rows := 0
	for i, n := range names {
		cdfs[i] = stats.CDF(series[n], maxPoints)
		if len(cdfs[i]) > rows {
			rows = len(cdfs[i])
		}
	}
	bw := bufio.NewWriter(w)
	for i, n := range names {
		if i > 0 {
			fmt.Fprint(bw, ",")
		}
		fmt.Fprintf(bw, "%s_value,%s_frac", n, n)
	}
	fmt.Fprintln(bw)
	for r := 0; r < rows; r++ {
		for i := range names {
			if i > 0 {
				fmt.Fprint(bw, ",")
			}
			if r < len(cdfs[i]) {
				fmt.Fprintf(bw, "%.4f,%.6f", cdfs[i][r].Value, cdfs[i][r].Frac)
			} else {
				fmt.Fprint(bw, ",")
			}
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// dumpResultCDFs writes the three Fig 9-style distributions of a sweep
// result — per-frame quality, per-session rebuffering ratio, per-session
// wastage — as CSV files under dir with the given prefix.
func dumpResultCDFs(dir, prefix string, res sim.Results) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("experiments: mkdir %s: %w", dir, err)
	}
	quality := map[string][]float64{}
	rebuf := map[string][]float64{}
	waste := map[string][]float64{}
	for name, sessions := range res {
		quality[name] = sim.PooledFrameScores(sessions)
		rebuf[name] = sim.SessionStat(sessions, func(m *player.Metrics) float64 { return 100 * m.RebufferRatio() })
		waste[name] = sim.SessionStat(sessions, func(m *player.Metrics) float64 { return m.WastagePct() })
	}
	if err := writeCDFCSV(filepath.Join(dir, prefix+"_quality_cdf.csv"), quality, 200); err != nil {
		return err
	}
	if err := writeCDFCSV(filepath.Join(dir, prefix+"_rebuffer_cdf.csv"), rebuf, 200); err != nil {
		return err
	}
	return writeCDFCSV(filepath.Join(dir, prefix+"_wastage_cdf.csv"), waste, 200)
}
