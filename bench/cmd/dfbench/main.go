// Command dfbench runs the repository benchmark (package bench): one workload
// per process, every workload in turn, the traced per-layer run, or the
// self-check that two sets of runs of the same code agree. See
// bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"dragonfly/bench"
)

// result is the last line of standard output of a single-workload run.
type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]bench.Metric `json:"metrics"`
}

func main() {
	var (
		workload  = flag.String("workload", "all", "workload to run: pop_sweep, fleet_bulk, wire_refine, ingest_mixed, or all (one child process each)")
		seed      = flag.Int64("seed", 1, "seed every input is generated from")
		seconds   = flag.Float64("seconds", 24, "length of the measured phase")
		units     = flag.Int64("units", 0, "bound the measured phase by this many units (sessions, shards, cycles) instead of by time")
		trace     = flag.Int("trace", 0, "1 runs the traced per-layer run and prints the per-layer metrics")
		traceOut  = flag.String("trace-out", "", "with -trace 1, write every span to this file (JSON lines)")
		selfcheck = flag.Int("selfcheck", 0, "run two alternating sets of N runs of every workload and compare them against the bounds")
		short     = flag.Bool("short", false, "small fixtures and no minimum phase length (smoke runs; not comparable)")
		tmp       = flag.String("tmp", ".bench_build", "directory for the run's temporary files")
		benchJSON = flag.String("bounds", "BENCHMARK.json", "with -selfcheck, the file the bounds are read from")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if err := os.MkdirAll(*tmp, 0o755); err != nil {
		fatal(err)
	}

	spec := bench.Spec{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Units: *units,
		Traced: *trace == 1, TraceOut: *traceOut, Short: *short, TmpDir: *tmp,
	}
	switch {
	case *selfcheck > 0:
		ok, err := bench.SelfCheck(os.Stdout, *selfcheck, *benchJSON, spec)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *workload == "all":
		for _, name := range bench.Workloads {
			spec.Workload = name
			out, err := bench.RunChild(spec)
			if err != nil {
				fatal(err)
			}
			fmt.Println(out.Report)
			fmt.Println(out.Result)
		}
	default:
		rep, err := bench.Run(spec)
		if err != nil {
			fatal(err)
		}
		doc, err := json.Marshal(rep)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(doc))
		if !rep.Correct {
			for _, c := range rep.Checks {
				if !c.OK {
					fmt.Fprintf(os.Stderr, "dfbench: check %s failed: %s\n", c.Name, c.Detail)
				}
			}
			for _, f := range rep.Failures {
				fmt.Fprintf(os.Stderr, "dfbench: failed op: %s\n", f)
			}
			fatal(fmt.Errorf("%s: refusing to emit metrics", *workload))
		}
		defs := bench.EndToEnd
		if rep.Traced {
			defs = bench.PerLayer
		}
		res := result{Correct: true, Attempted: rep.OpsAttempted, Failed: rep.OpsFailed, Metrics: map[string]bench.Metric{}}
		for _, d := range defs {
			res.Metrics[d.Name] = rep.Metrics[d.Name]
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dfbench:", err)
	os.Exit(1)
}
