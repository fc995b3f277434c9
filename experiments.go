package anycastctx

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"anycastctx/internal/obs"
	"anycastctx/internal/stage"
	"anycastctx/internal/world"
)

// Result is one reproduced table or figure.
type Result struct {
	// ID is the experiment identifier (e.g. "fig2a", "tab4"). ID, Title
	// and PaperClaim are copied from the experiment's registration when
	// it runs; Run leaves them empty.
	ID string
	// Title names the paper artifact.
	Title string
	// PaperClaim summarizes what the paper reports.
	PaperClaim string
	// Measured summarizes what this run measured (the comparable number).
	Measured string
	// Output is the rendered table or CDF series.
	Output string
	// Stats holds per-run observability data — wall time, allocation
	// delta, and which pipeline counters advanced. Nil unless obs span
	// collection is enabled; never influences Measured or Output.
	Stats *RunStats
}

// RunStats is the observability record of one experiment run.
type RunStats struct {
	// WallNs is the experiment's wall-clock duration.
	WallNs int64 `json:"wall_ns"`
	// AllocBytes is the heap allocated while it ran.
	AllocBytes uint64 `json:"alloc_bytes"`
	// CounterDeltas maps metric names to how far each pipeline counter
	// advanced during the run.
	CounterDeltas map[string]uint64 `json:"counter_deltas,omitempty"`
}

// Experiment is a registered, runnable reproduction of one paper artifact.
type Experiment struct {
	ID         string
	Title      string
	PaperClaim string
	// Needs declares every world stage the experiment reads. Accessors
	// only read, so a stage left out reads as nil: it may stay pending
	// even when a declared stage depends on it, because a persisted
	// stage loaded from the store materializes only its load-deps. An
	// experiment that touches no world stage — or builds its own world,
	// like fig11 — leaves Needs nil. runMeasured demands these before
	// the measurement snapshot, so stage build work never pollutes an
	// experiment's counter deltas.
	Needs []stage.ID
	// Run executes the experiment on a built world. ctx carries the
	// caller's span for trace parentage (never cancellation — experiments
	// are deterministic and run to completion); seed derives the
	// experiment's measurement-sampling streams (catchments and
	// populations live in the world and stay fixed).
	Run func(ctx context.Context, w *World, seed int64) (Result, error)
}

// ProgressEvent is one experiment lifecycle transition, delivered to the
// hook registered with SetProgressHook. Each experiment emits two events:
// one with Done=false when it starts and one with Done=true when it
// finishes (Err set if it failed).
type ProgressEvent struct {
	// ID is the experiment identifier.
	ID string
	// Done distinguishes the completion event from the start event.
	Done bool
	// Err is the experiment's error, set only on a Done event.
	Err error
	// WallNs is the experiment's wall-clock duration, set on Done.
	WallNs int64
	// Rows counts non-empty lines of rendered Output, set on Done.
	Rows int
}

// progressHook is the registered progress callback. Atomic so parallel
// RunAllCtx workers read it without locking; the callback itself must be
// safe for concurrent calls when experiments run in parallel.
var progressHook atomic.Pointer[func(ProgressEvent)]

// SetProgressHook registers fn to receive per-experiment start/finish
// events, replacing any previous hook; nil clears it. The hook observes
// runs — it must not mutate worlds or experiment state, and it never
// affects Measured or Output.
func SetProgressHook(fn func(ProgressEvent)) {
	if fn == nil {
		progressHook.Store(nil)
		return
	}
	progressHook.Store(&fn)
}

// countRows counts non-empty lines, the "rows processed" figure reported
// per experiment in progress events.
func countRows(output string) int {
	n := 0
	for _, line := range strings.Split(output, "\n") {
		if strings.TrimSpace(line) != "" {
			n++
		}
	}
	return n
}

// registry holds all experiments in presentation order.
var registry []Experiment

func register(e Experiment) {
	registry = append(registry, e)
}

// Experiments returns every registered experiment, in the paper's order.
func Experiments() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// RunExperimentCtx runs one experiment by ID with a seed derived from the
// world's configuration. ctx carries the caller's span into the
// experiment body (and from there into the pipeline fan-outs).
func RunExperimentCtx(ctx context.Context, w *World, id string) (Result, error) {
	for _, e := range registry {
		if e.ID == id {
			return runOne(ctx, w, e, true)
		}
	}
	known := make([]string, 0, len(registry))
	for _, e := range registry {
		known = append(known, e.ID)
	}
	sort.Strings(known)
	return Result{}, fmt.Errorf("anycastctx: unknown experiment %q (known: %v)", id, known)
}

// runOne executes one experiment with its derived seed. When obs span
// collection is enabled it records an "experiment.<id>" span and attaches
// wall time, allocation, and counter deltas to the result; the experiment
// itself sees an identical world and rng either way.
//
// withDeltas controls whether per-experiment counter deltas are computed
// from before/after registry snapshots. Deltas are only meaningful when
// experiments run one at a time: concurrent experiments advance the same
// global counters, so a parallel RunAllCtx passes withDeltas=false rather
// than attribute one experiment's counts to another.
func runOne(ctx context.Context, w *World, e Experiment, withDeltas bool) (Result, error) {
	hook := progressHook.Load()
	var started time.Time
	if hook != nil {
		started = time.Now()
		(*hook)(ProgressEvent{ID: e.ID})
	}
	res, err := runMeasured(ctx, w, e, withDeltas)
	if hook != nil {
		(*hook)(ProgressEvent{
			ID:     e.ID,
			Done:   true,
			Err:    err,
			WallNs: time.Since(started).Nanoseconds(),
			Rows:   countRows(res.Output),
		})
	}
	return res, err
}

// runMeasured is runOne minus progress reporting: seed derivation, the
// "experiment.<id>" span, stat attachment, and the registry's ID, Title
// and PaperClaim stamped onto the result.
func runMeasured(ctx context.Context, w *World, e Experiment, withDeltas bool) (Result, error) {
	seed := w.Cfg.Seed * 7919
	// Materialize the declared stage needs first, outside the
	// experiment's span and snapshot window: stage builds are world
	// work, not experiment work, and attributing a cache miss's compute
	// to whichever experiment happened to run first would make counter
	// deltas depend on execution order.
	if err := w.Demand(ctx, e.Needs...); err != nil {
		return Result{}, fmt.Errorf("materializing stages for %s: %w", e.ID, err)
	}
	var before obs.Snapshot
	if withDeltas && obs.Enabled() {
		before = obs.TakeSnapshot()
	}
	ctx, span := obs.StartSpanCtx(ctx, "experiment."+e.ID)
	res, err := e.Run(ctx, w, seed)
	span.End()
	if err != nil {
		return res, err
	}
	res.ID, res.Title, res.PaperClaim = e.ID, e.Title, e.PaperClaim
	if rec, ok := span.Record(); ok {
		res.Stats = &RunStats{
			WallNs:     rec.WallNs,
			AllocBytes: rec.AllocBytes,
		}
		if withDeltas {
			res.Stats.CounterDeltas = obs.TakeSnapshot().CounterDeltas(before)
		}
	}
	return res, nil
}

// RunAllCtx runs every experiment in registry order under one
// "run.experiments" span, each "experiment.<id>" span a direct child. It
// always returns the results of the experiments that succeeded, in
// registry order; the error joins every failure, so one broken
// experiment does not mask the others.
//
// workers <= 1 runs the experiments one at a time and attaches
// per-experiment counter deltas to their RunStats. workers > 1 runs them
// on a pool of that many goroutines: every experiment derives its rng
// from the world seed and only reads shared world state, so Measured and
// Output are byte-identical to a serial run, but CounterDeltas is omitted
// (global counters advance concurrently) and AllocBytes includes
// allocation by concurrently running experiments.
func RunAllCtx(ctx context.Context, w *World, workers int) ([]Result, error) {
	ctx, span := obs.StartSpanCtx(ctx, "run.experiments")
	defer span.End()
	workers = max(1, min(workers, len(registry)))
	type slot struct {
		res Result
		err error
	}
	slots := make([]slot, len(registry))
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(registry) {
					return
				}
				slots[i].res, slots[i].err = runOne(ctx, w, registry[i], workers == 1)
			}
		}()
	}
	wg.Wait()
	var out []Result
	var errs []error
	for i, e := range registry {
		if slots[i].err != nil {
			errs = append(errs, fmt.Errorf("experiment %s: %w", e.ID, slots[i].err))
			continue
		}
		out = append(out, slots[i].res)
	}
	return out, errors.Join(errs...)
}

// msGrid is the x-axis sampling used when rendering CDF figures.
func msGrid(max float64, step float64) []float64 {
	var xs []float64
	for x := 0.0; x <= max; x += step {
		xs = append(xs, x)
	}
	return xs
}

// logGrid samples a log-scaled axis (for queries/user/day figures).
func logGrid() []float64 {
	return []float64{0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1, 3, 10, 30, 100, 300, 1000}
}

// build2020 constructs the companion 2020-DITL world at the same scale,
// with the two stages fig11 reads.
func build2020(ctx context.Context, w *World) (*World, error) {
	cfg := w.Cfg
	cfg.Year = world.DITL2020
	cfg.Seed = w.Cfg.Seed + 202000
	w20, err := world.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := w20.Demand(ctx, stage.Campaign, stage.Join); err != nil {
		return nil, err
	}
	return w20, nil
}
