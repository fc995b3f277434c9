package anycastctx

// Scenario-engine benchmarks: the incremental/full-rebuild pair measures
// what the engine's route-cache seeding and the campaign rebase's reuse
// rules buy. Both evaluate the same builtin single-site withdrawal
// against the shared bench world; the equivalence suite guarantees their
// outputs are byte-identical, so the pair isolates pure recomputation
// cost.

import (
	"context"
	"sync"
	"testing"

	"anycastctx/internal/scenario"
)

var (
	scnBaseline     *scenario.Baseline
	scnBaselineOnce sync.Once
)

func benchScenario(b *testing.B, full bool) {
	w := getBenchWorld(b)
	scnBaselineOnce.Do(func() { scnBaseline = scenario.NewBaseline(w) })
	spec, ok := scenario.Builtin("withdraw-f-site")
	if !ok {
		b.Fatal("builtin withdraw-f-site missing")
	}
	ctx := context.Background()
	// Prime once outside the timer: the first evaluation fills the base
	// deployments' route caches, which both paths then read through.
	if _, err := scenario.Eval(ctx, scnBaseline, spec, scenario.Options{FullRebuild: full}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scenario.Eval(ctx, scnBaseline, spec, scenario.Options{FullRebuild: full}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScenarioIncremental evaluates a single-site withdrawal with
// the shortcuts on: only invalidated routes re-resolve, and the rebase
// re-derives only the cells whose inputs moved.
func BenchmarkScenarioIncremental(b *testing.B) { benchScenario(b, false) }

// BenchmarkScenarioFullRebuild evaluates the same withdrawal with every
// shortcut disabled — the oracle path, and the cost incremental
// evaluation is measured against.
func BenchmarkScenarioFullRebuild(b *testing.B) { benchScenario(b, true) }
