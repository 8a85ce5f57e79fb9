package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// ChildOutput is the last two lines a child printed: the full report document
// and the result line.
type ChildOutput struct {
	Report string
	Result string
}

// RunChild re-executes this binary for the one workload of spec and waits for
// it: every workload runs in a fresh process. The child's standard error
// passes through.
func RunChild(spec Spec) (ChildOutput, error) {
	workload := spec.Workload
	exe, err := os.Executable()
	if err != nil {
		return ChildOutput{}, err
	}
	args := []string{
		"-workload", workload,
		"-seed", strconv.FormatInt(spec.Seed, 10),
		"-seconds", strconv.FormatFloat(spec.Seconds, 'g', -1, 64),
		"-units", strconv.FormatInt(spec.Units, 10),
		"-tmp", spec.TmpDir,
	}
	if spec.Traced {
		args = append(args, "-trace", "1", "-trace-out", spec.TraceOut)
	}
	if spec.Short {
		args = append(args, "-short")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return ChildOutput{}, fmt.Errorf("%s: %w", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) < 2 {
		return ChildOutput{}, fmt.Errorf("%s: child printed %d lines, want the report and the result", workload, len(lines))
	}
	return ChildOutput{Report: lines[len(lines)-2], Result: lines[len(lines)-1]}, nil
}

// benchmarkFile is the part of BENCHMARK.json the self-check reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// SelfCheck runs two alternating sets (A, B) of n runs of every workload of
// the same binary, run i of both sets at seed a.Seed+i, and writes a Markdown
// table per workload: per metric the two medians and quartiles, the spread
// (interquartile range over the median), how much worse B's median is than
// A's, and the bound. It reports false when a median drifts or a spread
// (set-up time excepted, as in the acceptance rule) exceeds its bound.
func SelfCheck(w io.Writer, n int, boundsPath string, a Spec) (bool, error) {
	raw, err := os.ReadFile(boundsPath)
	if err != nil {
		return false, fmt.Errorf("selfcheck: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return false, fmt.Errorf("selfcheck: %s: %w", boundsPath, err)
	}
	if n < 2 {
		return false, fmt.Errorf("selfcheck: need at least 2 runs per set for quartiles, got %d", n)
	}

	fmt.Fprintf(w, "# dfbench -selfcheck %d\n\n", n)
	fmt.Fprintf(w, "Two alternating sets (A, B) of %d runs of every workload, same binary, seeds %d to %d, %g s measured per run.\n", n, a.Seed, a.Seed+int64(n)-1, a.Seconds)
	fmt.Fprintf(w, "Spread is (Q3 - Q1) / median with the quartiles of Python's `statistics.quantiles(values, n=4)`; drift is how much worse B's median is than A's.\n\n")

	allOK := true
	for _, wl := range Workloads {
		var sets [2]map[string][]float64
		sets[0], sets[1] = map[string][]float64{}, map[string][]float64{}
		for i := 0; i < n; i++ {
			for s := range sets {
				run := a
				run.Workload, run.Seed, run.Traced = wl, a.Seed+int64(i), false
				out, err := RunChild(run)
				if err != nil {
					return false, err
				}
				var res struct {
					Metrics map[string]Metric `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(out.Result), &res); err != nil {
					return false, fmt.Errorf("selfcheck: %s: result line: %w", wl, err)
				}
				for name, m := range res.Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
			}
		}
		fmt.Fprintf(w, "## %s\n\n", wl)
		fmt.Fprintln(w, "| metric | A median [Q1, Q3] | B median [Q1, Q3] | spread A | spread B | drift | bound | verdict |")
		fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|")
		for _, def := range bf.EndToEnd {
			aq1, amed, aq3 := quartiles(sets[0][def.Name])
			bq1, bmed, bq3 := quartiles(sets[1][def.Name])
			drift := (bmed - amed) / amed
			if def.Better == "higher" {
				drift = -drift
			}
			spreadA, spreadB := (aq3-aq1)/amed, (bq3-bq1)/bmed
			verdict := "ok"
			if drift > def.Bound {
				verdict = "DRIFT"
			} else if def.Name != "setup_s" && (spreadA > def.Bound || spreadB > def.Bound) {
				verdict = "SPREAD"
			}
			if verdict != "ok" {
				allOK = false
			}
			fmt.Fprintf(w, "| %s | %.4g [%.4g, %.4g] | %.4g [%.4g, %.4g] | %.2f%% | %.2f%% | %+.2f%% | %.0f%% | %s |\n",
				def.Name, amed, aq1, aq3, bmed, bq1, bq3, 100*spreadA, 100*spreadB, 100*drift, 100*def.Bound, verdict)
		}
		fmt.Fprintf(w, "\nEvery run (set, seed, then the metrics in the order above):\n\n```\n")
		for i := 0; i < n; i++ {
			for si, set := range sets {
				fmt.Fprintf(w, "%c %2d", 'A'+si, a.Seed+int64(i))
				for _, def := range bf.EndToEnd {
					fmt.Fprintf(w, " %11.5g", set[def.Name][i])
				}
				fmt.Fprintln(w)
			}
		}
		fmt.Fprintf(w, "```\n\n")
	}
	if allOK {
		fmt.Fprintln(w, "Every metric of every workload is within its bound.")
	} else {
		fmt.Fprintln(w, "At least one metric is outside its bound.")
	}
	return allOK, nil
}
