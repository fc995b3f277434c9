// Command experiments reproduces the paper's tables and figures: it builds
// a simulated world and runs any (or all) of the registered experiments,
// printing the paper's claim next to the measured result.
//
// Usage:
//
//	experiments -list
//	experiments -run fig2a
//	experiments -run all -scale 0.2 -seed 7
//	experiments -run all -j 0                # all experiments across all CPUs
//	experiments -run all -report run.json -trace trace.txt -metrics metrics.json
//	experiments -run all -trace-chrome trace.json   # open in Perfetto / chrome://tracing
//	experiments -run all -serve :9090 -v            # live /metrics, /progress, /debug/pprof
//	experiments -run fig2a -cpuprofile cpu.pprof -memprofile mem.pprof
//	experiments -run robust1 -faults 0.01     # 1% seeded fault injection
//	experiments -run all -check               # gate on pipeline-wide invariants
//	experiments -scenario withdraw-b-site     # what-if: before/after deltas
//	experiments -scenario spec.json -scenario-oracle -check
//	experiments -run all -cache-dir /tmp/acx  # persist stage artifacts; rerun is warm
//	experiments -stages -cache-dir /tmp/acx   # show the stage DAG and store state
//	experiments -explain fig2a                # which stages fig2a demands
//
// The observability flags never change experiment output: instrumented
// runs are byte-identical to uninstrumented runs. -check writes only to
// stderr for the same reason: stdout stays byte-identical with or
// without it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"anycastctx"
	"anycastctx/internal/check"
	"anycastctx/internal/faults"
	"anycastctx/internal/obs"
	"anycastctx/internal/stage"
	"anycastctx/internal/world"
)

func main() {
	var (
		seed       = flag.Int64("seed", 1, "world seed")
		scale      = flag.Float64("scale", 0.25, "world scale in (0,1]; 1 = paper scale")
		year       = flag.Int("year", 2018, "DITL scenario year (2018 or 2020)")
		run        = flag.String("run", "all", "experiment ID to run, or 'all'")
		faultRate  = flag.Float64("faults", 0, "fault-injection rate in [0,1): corrupt captures, drop telemetry rows, withdraw sites (0 = off)")
		jobs       = flag.Int("j", 1, "experiment worker count for -run all (0 = NumCPU; >1 disables per-experiment counter deltas in -report)")
		list       = flag.Bool("list", false, "list experiments and exit")
		out        = flag.String("out", "", "directory to also write one .txt file per experiment")
		traceFile  = flag.String("trace", "", "write a flame-ordered span trace (wall time + allocs per stage)")
		chromeFile = flag.String("trace-chrome", "", "write a Chrome trace-event JSON (load in Perfetto or chrome://tracing)")
		metrics    = flag.String("metrics", "", "write a JSON snapshot of every pipeline metric")
		report     = flag.String("report", "", "write a machine-readable JSON run report")
		serve      = flag.String("serve", "", "serve /metrics (OpenMetrics), /progress (JSON), and /debug/pprof on this address (e.g. :9090) for the duration of the run")
		checkInv   = flag.Bool("check", false, "run pipeline-wide invariant checkers after the world build and after the experiments; violations go to stderr and exit 1")
		scnName    = flag.String("scenario", "", "evaluate a what-if scenario (builtin name or JSON spec file) instead of running experiments")
		scnOracle  = flag.Bool("scenario-oracle", false, "with -scenario: evaluate incrementally again on warm base caches, then via full rebuild, and exit 1 unless every report and campaign is byte-identical")
		cacheDir   = flag.String("cache-dir", "", "persist stage artifacts under this directory; reruns with the same config load instead of recomputing")
		stagesFlag = flag.Bool("stages", false, "print the stage DAG (keys, dependencies, artifact-store state) and exit")
		explain    = flag.String("explain", "", "print which stages an experiment demands (declared needs plus transitive closure) and exit")
		verbose    = flag.Bool("v", false, "log one line per experiment completion to stderr")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile")
		memprofile = flag.String("memprofile", "", "write a heap profile")
	)
	flag.Parse()

	if *list {
		for _, e := range anycastctx.Experiments() {
			fmt.Printf("%-6s %s\n       paper: %s\n", e.ID, e.Title, e.PaperClaim)
		}
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	// Span collection drives the traces and the report's per-experiment
	// stats; metric counters are always live.
	observing := *traceFile != "" || *chromeFile != "" || *metrics != "" || *report != ""
	if observing {
		obs.Enable()
	}

	cfg := anycastctx.Config{Seed: *seed, Scale: *scale, CacheDir: *cacheDir}
	if err := validateFlags(*scale, *faultRate, *jobs, *scnName, *scnOracle, *report, *memprofile, *out); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *faultRate > 0 {
		cfg.Faults = faults.Uniform(*seed, *faultRate)
	}
	switch *year {
	case 2018:
		cfg.Year = anycastctx.DITL2018
	case 2020:
		cfg.Year = anycastctx.DITL2020
	default:
		fmt.Fprintf(os.Stderr, "unsupported year %d\n", *year)
		os.Exit(2)
	}

	if *stagesFlag {
		if err := printStages(cfg); err != nil {
			fatal(err)
		}
		return
	}
	if *explain != "" {
		if err := printExplain(cfg, *explain); err != nil {
			fatal(err)
		}
		return
	}

	// The progress hook feeds both -v logging and the -serve /progress
	// resource; it observes runs without touching their output.
	var ids []string
	for _, e := range anycastctx.Experiments() {
		if *run == "all" || e.ID == *run {
			ids = append(ids, e.ID)
		}
	}
	tracker := newProgressTracker(ids)
	if *verbose || *serve != "" {
		v := *verbose
		anycastctx.SetProgressHook(func(ev anycastctx.ProgressEvent) {
			tracker.observe(ev)
			if v && ev.Done {
				status := "ok"
				if ev.Err != nil {
					status = "FAIL"
				}
				fmt.Fprintf(os.Stderr, "%-8s %s  %8.1fms  %4d rows\n",
					ev.ID, status, float64(ev.WallNs)/1e6, ev.Rows)
			}
		})
	}

	if *serve != "" {
		mux := obs.NewServeMux(obs.Default)
		mux.HandleFunc("/progress", tracker.handler())
		ln, err := net.Listen("tcp", *serve)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "serving observability on http://%s (/metrics, /progress, /debug/pprof)\n", ln.Addr())
		go func() {
			if err := http.Serve(ln, mux); err != nil {
				fmt.Fprintf(os.Stderr, "serve: %v\n", err)
			}
		}()
	}

	runStart := time.Now()
	fmt.Fprintf(os.Stderr, "building world (seed %d, scale %.2f, year %d)...\n", *seed, *scale, *year)
	ctx := context.Background()
	w, err := anycastctx.NewWorld(cfg)
	if err != nil {
		fatal(err)
	}
	// Demand-driven build: materialize only the stages the selected
	// experiments declare. Scenario mode runs no experiment: its
	// evaluation, like the invariant checkers, demands what it reads.
	var needs []stage.ID
	if *scnName == "" {
		needs = neededStages(*run)
	}
	buildCtx, buildSpan := obs.StartSpanCtx(ctx, "run.build_world")
	err = w.Demand(buildCtx, needs...)
	buildSpan.End()
	if err != nil {
		fatal(err)
	}

	// Invariant checks run against the quiescent world: once right after
	// the build, once after the experiments (which may have filled caches
	// like the route memos). Output goes to stderr so checked runs stay
	// byte-identical on stdout.
	checkFailed := false
	runChecks := func(when string) {
		// check.Run demands the stages it reads: their spans, if any
		// compute, land under this one.
		cctx, span := obs.StartSpanCtx(ctx, "run.check")
		vs := check.Run(cctx, w)
		span.End()
		fmt.Fprintf(os.Stderr, "invariants %s: %s", when, check.Render(vs, len(check.All())))
		if len(vs) > 0 {
			checkFailed = true
		}
	}
	if *checkInv {
		runChecks("after world build")
	}

	// Scenario mode replaces the experiment run: evaluate the what-if,
	// print its before/after report, and still honor the observability
	// outputs (spans from the evaluation land in the same trace files).
	if *scnName != "" {
		scnErr := runScenario(ctx, w, *scnName, *scnOracle, *checkInv)
		printCacheSummary(w, *cacheDir)
		if err := writeObsArtifacts(*traceFile, *chromeFile, *metrics); err != nil {
			fatal(err)
		}
		if scnErr != nil {
			fatal(scnErr)
		}
		if checkFailed {
			fmt.Fprintln(os.Stderr, "invariant check failed")
			os.Exit(1)
		}
		return
	}

	var results []anycastctx.Result
	var runErr error
	if *run == "all" {
		results, runErr = anycastctx.RunAllCtx(ctx, w, resolveWorkers(*jobs))
	} else {
		var res anycastctx.Result
		res, runErr = anycastctx.RunExperimentCtx(ctx, w, *run)
		if runErr == nil {
			results = append(results, res)
		}
	}

	// Print every successful result before reporting failures: a broken
	// experiment must not discard work already done.
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatal(err)
		}
	}
	for _, res := range results {
		fmt.Printf("== %s: %s\n", res.ID, res.Title)
		fmt.Printf("   paper:    %s\n", res.PaperClaim)
		fmt.Printf("   measured: %s\n\n", res.Measured)
		fmt.Println(res.Output)
		if *out != "" {
			body := fmt.Sprintf("%s\npaper:    %s\nmeasured: %s\n\n%s",
				res.Title, res.PaperClaim, res.Measured, res.Output)
			path := filepath.Join(*out, res.ID+".txt")
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				fatal(err)
			}
		}
	}

	printCacheSummary(w, *cacheDir)
	if err := writeObsArtifacts(*traceFile, *chromeFile, *metrics); err != nil {
		fatal(err)
	}
	if *report != "" {
		rep := buildReport(cfg, *year, *faultRate, results, runErr, buildSpan, time.Since(runStart))
		rep.Stages = w.StageStatuses()
		if err := writeJSON(*report, rep); err != nil {
			fatal(err)
		}
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}

	if *checkInv {
		runChecks("after experiments")
	}

	if runErr != nil {
		fmt.Fprintf(os.Stderr, "%d experiment(s) succeeded; failures:\n%v\n", len(results), runErr)
		os.Exit(1)
	}
	if checkFailed {
		fmt.Fprintln(os.Stderr, "invariant check failed")
		os.Exit(1)
	}
}

// validateFlags rejects out-of-range -scale/-faults/-j values before they
// propagate into the world build or the fault policy, the outputs
// scenario mode never writes, and -scenario-oracle without a scenario to
// check. The negated range comparisons are deliberate: `x <= 0 || x > 1`
// is false for NaN, so a NaN scale or fault rate would otherwise sail
// straight through.
func validateFlags(scale, faultRate float64, jobs int, scenario string, oracle bool, report, memprofile, out string) error {
	if !(scale > 0 && scale <= 1) {
		return fmt.Errorf("-scale %v out of (0, 1]", scale)
	}
	if !(faultRate >= 0 && faultRate < 1) {
		return fmt.Errorf("-faults %v out of [0, 1)", faultRate)
	}
	if jobs < 0 {
		return fmt.Errorf("-j %d is negative (0 means all CPUs)", jobs)
	}
	if oracle && scenario == "" {
		return fmt.Errorf("-scenario-oracle needs -scenario")
	}
	if scenario != "" {
		for _, f := range []struct{ name, value string }{
			{"report", report}, {"memprofile", memprofile}, {"out", out},
		} {
			if f.value != "" {
				return fmt.Errorf("-%s is not supported with -scenario", f.name)
			}
		}
	}
	return nil
}

// resolveWorkers maps the -j flag to a worker count: zero means "use
// every CPU" (negative values are rejected by validateFlags).
func resolveWorkers(jobs int) int {
	if jobs <= 0 {
		return runtime.NumCPU()
	}
	return jobs
}

// runReport is the machine-readable record of one experiments run, meant
// for tracking the performance trajectory across changes.
type runReport struct {
	Seed  int64   `json:"seed"`
	Scale float64 `json:"scale"`
	Year  int     `json:"year"`
	// Run provenance: which source revision, how many scheduler threads,
	// the fault-injection rate, and a fingerprint of the exact world
	// configuration — enough to decide whether two reports are comparable.
	GitSHA      string    `json:"git_sha,omitempty"`
	GoMaxProcs  int       `json:"gomaxprocs"`
	FaultRate   float64   `json:"fault_rate"`
	ConfigHash  string    `json:"config_hash"`
	WallMs      float64   `json:"wall_ms"`
	WorldBuild  stageStat `json:"world_build"`
	Experiments []expStat `json:"experiments"`
	// PeakHeapBytes is the largest live heap the obs layer sampled during
	// the run; PeakRSSBytes is the OS-reported high-water resident set
	// (VmHWM), 0 where unavailable. Together they track whether a change
	// moved the run's memory ceiling.
	PeakHeapBytes uint64 `json:"peak_heap_bytes"`
	PeakRSSBytes  uint64 `json:"peak_rss_bytes,omitempty"`
	// Metrics is the end-of-run snapshot of every registered pipeline
	// metric (world, bgp, dnssim, ditl, cdn, ...).
	Metrics obs.Snapshot `json:"metrics"`
	// Stages records each world stage's materialization: key, whether it
	// loaded from the artifact store or computed, bytes, and timings.
	Stages   []world.StageStatus `json:"stages,omitempty"`
	Failures []string            `json:"failures,omitempty"`
}

type stageStat struct {
	WallMs     float64 `json:"wall_ms"`
	AllocBytes uint64  `json:"alloc_bytes"`
}

type expStat struct {
	ID         string            `json:"id"`
	Title      string            `json:"title"`
	Measured   string            `json:"measured"`
	WallMs     float64           `json:"wall_ms"`
	AllocBytes uint64            `json:"alloc_bytes"`
	Metrics    map[string]uint64 `json:"metrics,omitempty"`
}

func buildReport(cfg anycastctx.Config, year int, faultRate float64, results []anycastctx.Result,
	runErr error, buildSpan obs.Span, elapsed time.Duration) runReport {
	obs.SampleHeap() // fold the final live heap into the peak
	rep := runReport{
		Seed:          cfg.Seed,
		Scale:         cfg.Scale,
		Year:          year,
		GitSHA:        gitSHA(),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		FaultRate:     faultRate,
		ConfigHash:    configHash(cfg),
		WallMs:        float64(elapsed.Nanoseconds()) / 1e6,
		PeakHeapBytes: obs.PeakHeapBytes(),
		PeakRSSBytes:  obs.PeakRSSBytes(),
		Metrics:       obs.TakeSnapshot(),
	}
	if rec, ok := buildSpan.Record(); ok {
		rep.WorldBuild = stageStat{WallMs: float64(rec.WallNs) / 1e6, AllocBytes: rec.AllocBytes}
	}
	for _, res := range results {
		st := expStat{ID: res.ID, Title: res.Title, Measured: res.Measured}
		if res.Stats != nil {
			st.WallMs = float64(res.Stats.WallNs) / 1e6
			st.AllocBytes = res.Stats.AllocBytes
			st.Metrics = res.Stats.CounterDeltas
		}
		rep.Experiments = append(rep.Experiments, st)
	}
	if runErr != nil {
		rep.Failures = append(rep.Failures, runErr.Error())
	}
	return rep
}

// writeObsArtifacts writes the -trace/-trace-chrome/-metrics outputs;
// empty paths are skipped. Shared by the experiment and scenario paths.
func writeObsArtifacts(traceFile, chromeFile, metrics string) error {
	if traceFile != "" {
		f, err := os.Create(traceFile)
		if err != nil {
			return err
		}
		if err := obs.WriteTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if chromeFile != "" {
		f, err := os.Create(chromeFile)
		if err != nil {
			return err
		}
		if err := obs.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if metrics != "" {
		if err := writeJSON(metrics, obs.TakeSnapshot()); err != nil {
			return err
		}
	}
	return nil
}

func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
