package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"strings"

	"anycastctx"
	"anycastctx/internal/check"
	"anycastctx/internal/ditl"
	"anycastctx/internal/scenario"
)

// resolveScenarioSpec maps the -scenario argument to a spec: a path to a
// JSON spec file if one exists there, otherwise a builtin name.
func resolveScenarioSpec(arg string) (scenario.Spec, error) {
	if st, err := os.Stat(arg); err == nil && !st.IsDir() {
		return scenario.ParseFile(arg)
	}
	if spec, ok := scenario.Builtin(arg); ok {
		return spec, nil
	}
	return scenario.Spec{}, fmt.Errorf("unknown scenario %q: not a spec file, and builtins are %s",
		arg, strings.Join(scenario.BuiltinNames(), ", "))
}

// runScenario evaluates one what-if scenario against the built world and
// prints the before/after report to stdout. With oracle set it evaluates
// incrementally a second time, on base route caches the first evaluation
// and its report filled (each evaluation resolves a mutated deployment's
// base routes over the eyeballs before seeding the variant from them);
// it then evaluates via full rebuild and errors unless both incremental
// reports, campaigns and joins equal the rebuild's byte for byte (the
// engine's correctness contract). With checkInv set the pipeline invariant
// checkers run on the mutated world, the second one under oracle; like
// -check on the base world, their output goes to stderr only.
func runScenario(ctx context.Context, w *anycastctx.World, arg string, oracle, checkInv bool) error {
	spec, err := resolveScenarioSpec(arg)
	if err != nil {
		return err
	}
	b := scenario.NewBaseline(w)
	first, err := scenario.Eval(ctx, b, spec, scenario.Options{})
	if err != nil {
		return fmt.Errorf("scenario %s: %w", spec.Name, err)
	}
	rep, res := first.Report(ctx), first
	if oracle {
		if res, err = scenario.Eval(ctx, b, spec, scenario.Options{}); err != nil {
			return fmt.Errorf("scenario %s (second evaluation): %w", spec.Name, err)
		}
		full, err := scenario.Eval(ctx, b, spec, scenario.Options{FullRebuild: true})
		if err != nil {
			return fmt.Errorf("scenario %s (full rebuild): %w", spec.Name, err)
		}
		fullRep := full.Report(ctx)
		compare := func(rep string, ov *anycastctx.World) error {
			return compareWithRebuild(rep, fullRep, ov.Campaign(), full.World.Campaign(),
				ov.JoinCtx(ctx), full.World.JoinCtx(ctx))
		}
		err = compare(rep, first.World)
		if err == nil {
			err = compare(res.Report(ctx), res.World)
		}
		if err != nil {
			return fmt.Errorf("scenario %s: %w", spec.Name, err)
		}
		fmt.Fprintf(os.Stderr, "scenario oracle: both incremental evaluations byte-identical to full rebuild\n")
	}
	fmt.Print(rep)
	if checkInv {
		vs := check.Run(ctx, res.World)
		fmt.Fprintf(os.Stderr, "invariants on scenario world: %s", check.Render(vs, len(check.All())))
		if len(vs) > 0 {
			return fmt.Errorf("invariant check failed on scenario world")
		}
	}
	return nil
}

// compareWithRebuild errors unless an incremental evaluation's report,
// campaign and join equal the full rebuild's byte for byte. The report
// renders no base RTT, TCP median or letter weight, so the artifact
// encodings of the campaigns and of the route tables they were assembled
// on are compared too. The join's encoding is compared because an
// overlay may share the base's join instead of computing its own.
func compareWithRebuild(rep, fullRep string, camp, fullCamp *ditl.Campaign, join, fullJoin *ditl.Join) error {
	if rep != fullRep {
		fmt.Fprintf(os.Stderr, "--- incremental ---\n%s--- full rebuild ---\n%s", rep, fullRep)
		return fmt.Errorf("incremental report differs from full rebuild")
	}
	if !bytes.Equal(camp.EncodeArtifact(), fullCamp.EncodeArtifact()) ||
		!bytes.Equal(camp.RouteTable().EncodeArtifact(), fullCamp.RouteTable().EncodeArtifact()) {
		return fmt.Errorf("incremental campaign differs from full rebuild")
	}
	if !bytes.Equal(ditl.EncodeJoin(join), ditl.EncodeJoin(fullJoin)) {
		return fmt.Errorf("incremental join differs from full rebuild")
	}
	return nil
}
