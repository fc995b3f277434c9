package anycastctx

import (
	"context"
	"errors"
	"sort"
	"strings"
	"testing"

	"anycastctx/internal/obs"
	"anycastctx/internal/stage"
)

// TestInstrumentationDoesNotChangeResults is the obs determinism
// guarantee: with span collection enabled, every experiment's Measured
// and Output fields are byte-identical to an uninstrumented run on an
// identically-seeded world. Metrics observe the simulation; they never
// feed back into it.
func TestInstrumentationDoesNotChangeResults(t *testing.T) {
	if obs.Enabled() {
		t.Fatal("obs unexpectedly enabled at test start")
	}
	ids := []string{"fig2a", "fig3", "fig5a", "tab4", "fig4b"}

	runSet := func() map[string]Result {
		t.Helper()
		w, err := BuildWorld(TestScaleConfig(17))
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]Result, len(ids))
		for _, id := range ids {
			res, err := RunExperimentCtx(context.Background(), w, id)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			out[id] = res
		}
		return out
	}

	plain := runSet()

	obs.Enable()
	defer obs.Disable()
	instrumented := runSet()

	for _, id := range ids {
		p, i := plain[id], instrumented[id]
		if p.Measured != i.Measured {
			t.Errorf("%s: Measured differs with instrumentation on:\n  off: %s\n  on:  %s",
				id, p.Measured, i.Measured)
		}
		if p.Output != i.Output {
			t.Errorf("%s: Output differs with instrumentation on", id)
		}
		if p.Stats != nil {
			t.Errorf("%s: Stats populated with obs disabled", id)
		}
		if i.Stats == nil {
			t.Errorf("%s: Stats missing with obs enabled", id)
		} else if i.Stats.WallNs <= 0 {
			t.Errorf("%s: non-positive wall time %d", id, i.Stats.WallNs)
		}
	}
}

// TestExperimentSpansRecorded checks that instrumented runs collect
// world-build and per-experiment spans in flame order.
func TestExperimentSpansRecorded(t *testing.T) {
	obs.Enable()
	defer obs.Disable()

	w, err := BuildWorld(TestScaleConfig(19))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunExperimentCtx(context.Background(), w, "fig2a"); err != nil {
		t.Fatal(err)
	}

	var sawBuild, sawPhase, sawExp bool
	for _, sp := range obs.Spans() {
		switch {
		case sp.Name == "world.build":
			sawBuild = true
		case strings.HasPrefix(sp.Name, "world.") && sp.Depth > 0:
			sawPhase = true
		case sp.Name == "experiment.fig2a":
			sawExp = true
		}
	}
	if !sawBuild || !sawPhase || !sawExp {
		t.Errorf("spans missing: world.build=%v nested world phase=%v experiment.fig2a=%v",
			sawBuild, sawPhase, sawExp)
	}
}

// TestPipelineMetricsRegistered asserts the acceptance-level coverage:
// after a full run, named metrics exist for every pipeline stage family.
func TestPipelineMetricsRegistered(t *testing.T) {
	w, err := BuildWorld(TestScaleConfig(23))
	if err != nil {
		t.Fatal(err)
	}
	// The join too, which the classic build leaves pending.
	if err := w.Demand(context.Background(), stage.Join); err != nil {
		t.Fatal(err)
	}

	snap := obs.TakeSnapshot()
	var names []string
	for n := range snap.Counters {
		names = append(names, n)
	}
	for n := range snap.Gauges {
		names = append(names, n)
	}
	for n := range snap.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	byPrefix := map[string]int{}
	for _, n := range names {
		if i := strings.IndexByte(n, '.'); i > 0 {
			byPrefix[n[:i]]++
		}
	}
	for _, prefix := range []string{"world", "bgp", "dnssim", "ditl", "cdn"} {
		if byPrefix[prefix] == 0 {
			t.Errorf("no metrics registered under %q (got %v)", prefix, names)
		}
	}
	if len(names) < 10 {
		t.Errorf("only %d metrics registered, want ≥ 10: %v", len(names), names)
	}

	// A built world must have advanced the core pipeline counters.
	for _, name := range []string{"bgp.routes_resolved", "ditl.assignments", "cdn.rings_built", "world.builds"} {
		if snap.Counters[name] == 0 {
			t.Errorf("counter %s = 0 after a world build", name)
		}
	}
}

// TestRunAllAggregatesFailures verifies that RunAllCtx returns every
// successful result alongside an error joining all failures.
func TestRunAllAggregatesFailures(t *testing.T) {
	w := testWorld(t)

	// Inject two failing experiments into the registry for this test.
	errFail1 := errors.New("boom one")
	errFail2 := errors.New("boom two")
	n := len(registry)
	register(Experiment{ID: "zz-fail-1", Title: "t", PaperClaim: "c",
		Run: func(ctx context.Context, w *World, seed int64) (Result, error) { return Result{}, errFail1 }})
	register(Experiment{ID: "zz-fail-2", Title: "t", PaperClaim: "c",
		Run: func(ctx context.Context, w *World, seed int64) (Result, error) { return Result{}, errFail2 }})
	defer func() { registry = registry[:n] }()

	results, err := RunAllCtx(context.Background(), w, 1)
	if err == nil {
		t.Fatal("RunAllCtx with failing experiments returned nil error")
	}
	if len(results) != n {
		t.Errorf("RunAllCtx returned %d results, want %d successes", len(results), n)
	}
	msg := err.Error()
	if !strings.Contains(msg, "zz-fail-1") || !strings.Contains(msg, "zz-fail-2") {
		t.Errorf("error does not aggregate both failures: %v", msg)
	}
}
