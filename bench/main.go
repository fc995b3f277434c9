// Command bench is the repository benchmark. It runs one workload of the
// simulator end to end from a seed, checks the workload's outputs, and
// prints one JSON result line: the end-to-end metrics BENCHMARK.json
// declares, or with -trace 1 its per-layer metrics. Every layer is timed
// from outside, by wrapping calls to the program's public functions.
//
//	bash bench/run.sh -workload cold-suite -seed 1 -seconds 20 -trace 0
//	bash bench/run.sh -workload all -seed 7
//	bash bench/run.sh -agree runs/a runs/b
//
// See README.md for the workloads, the metrics and how to read them.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line; its four keys are a contract
// with whatever consumes the runs.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", 12, "length of the measured loop in seconds")
	trace := fs.Int("trace", 0, "1 = traced run that prints the per-layer metrics")
	traceOut := fs.String("trace-out", "", "Chrome trace written by a traced run (default .bench_build/trace-<workload>.json)")
	workDir := fs.String("workdir", filepath.Join(".bench_build", "work"), "directory for the warm-start artifact store")
	agree := fs.Bool("agree", false, "compare two directories of result files: -agree <dirA> <dirB>")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark declaration that -agree reads the bounds from")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *agree {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -agree needs two result directories")
			return 2
		}
		ok, err := agreeDirs(*spec, fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace takes 0 or 1")
		return 2
	}
	if *name == "all" {
		return runAll(args, stdout, stderr)
	}
	wl, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q (want %s, or all)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	opt := options{seed: *seed, seconds: *seconds, workDir: *workDir, log: stderr}

	var res result
	var err error
	if *trace == 1 {
		out := *traceOut
		if out == "" {
			out = filepath.Join(".bench_build", "trace-"+wl.name+".json")
		}
		var tr *tracedRun
		if tr, err = traceWorkload(context.Background(), wl, opt, out); err == nil {
			res = tr.result()
		}
	} else {
		var m *measurement
		if m, err = measure(context.Background(), wl, opt, 3); err == nil {
			res = m.endToEnd()
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", wl.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if res.Failed > 0 {
		return 1
	}
	return 0
}

// runAll runs every workload in its own child process, so each one's
// peak RSS is its own, and passes their output through. Later flags win,
// so appending -workload overrides the "all" in args.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	code := 0
	for _, name := range workloadNames() {
		cmd := exec.Command(self, append(append([]string{}, args...), "-workload", name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: workload %s: %v\n", name, err)
			code = 1
		}
	}
	return code
}
