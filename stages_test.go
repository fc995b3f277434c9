package anycastctx

import (
	"context"
	"testing"

	"anycastctx/internal/stage"
)

// TestFig2aDemandsOnlyItsStages proves the build is demand-driven: on a
// fresh (never-built) world, running fig2a — which declares only the DITL
// campaign and the join — must leave the CDN, its telemetry tables, and
// the Atlas platform pending. Under the monolithic build every experiment
// paid for all of them.
func TestFig2aDemandsOnlyItsStages(t *testing.T) {
	w, err := NewWorld(TestScaleConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunExperimentCtx(context.Background(), w, "fig2a"); err != nil {
		t.Fatal(err)
	}
	mustPending := map[stage.ID]bool{
		stage.CDN: true, stage.Atlas: true, stage.Locations: true,
		stage.ServerLogs: true, stage.ClientRows: true,
	}
	mustDone := map[stage.ID]bool{
		stage.Campaign: true, stage.Join: true, stage.UserCounts: true,
	}
	for _, st := range w.StageStatuses() {
		if mustPending[st.ID] && st.Outcome != "pending" {
			t.Errorf("stage %s materialized (%s) for fig2a, which never reads it", st.ID, st.Outcome)
		}
		if mustDone[st.ID] && st.Outcome == "pending" {
			t.Errorf("stage %s still pending after fig2a, which reads it", st.ID)
		}
	}
}

// TestNeedsDeclared is the sufficiency oracle for Needs: run alone on a
// fresh world, every experiment must leave each stage outside its
// declared Needs' closure pending. An under-declared stage would
// otherwise materialize quietly through its accessor, unseen by the CLI's
// pre-demand and -explain.
func TestNeedsDeclared(t *testing.T) {
	ctx := context.Background()
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			for _, id := range e.Needs {
				if !stage.Valid(id) {
					t.Fatalf("invalid stage %q in Needs", id)
				}
			}
			w, err := NewWorld(TestScaleConfig(11))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := RunExperimentCtx(ctx, w, e.ID); err != nil {
				t.Fatal(err)
			}
			declared := map[stage.ID]bool{}
			for _, id := range stage.Closure(e.Needs...) {
				declared[id] = true
			}
			for _, st := range w.StageStatuses() {
				if !declared[st.ID] && st.Outcome != "pending" {
					t.Errorf("stage %s %s, but Needs %v does not reach it", st.ID, st.Outcome, e.Needs)
				}
			}
		})
	}
}

// TestDemandDrivenMatchesEagerBuild: every experiment must produce
// byte-identical output whether its world was eagerly built (the classic
// monolith behavior, via Build) or materialized lazily from a fresh
// shell. Any ordering dependence between stages would diverge here.
func TestDemandDrivenMatchesEagerBuild(t *testing.T) {
	ctx := context.Background()
	eager, err := BuildWorld(TestScaleConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := NewWorld(TestScaleConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range Experiments() {
		re, err := RunExperimentCtx(ctx, eager, e.ID)
		if err != nil {
			t.Fatalf("%s on eager world: %v", e.ID, err)
		}
		rl, err := RunExperimentCtx(ctx, lazy, e.ID)
		if err != nil {
			t.Fatalf("%s on lazy world: %v", e.ID, err)
		}
		if re.Measured != rl.Measured {
			t.Errorf("%s: Measured differs\neager: %s\nlazy:  %s", e.ID, re.Measured, rl.Measured)
		}
		if re.Output != rl.Output {
			t.Errorf("%s: Output differs between eager and lazy worlds", e.ID)
		}
	}
}

// TestWarmWorldMatchesCold runs the full experiment suite against a
// store-backed warm world and requires byte-identical results — the
// end-to-end form of the cold-vs-warm contract, crossing the codec
// boundary for every persisted stage.
func TestWarmWorldMatchesCold(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	cfg := TestScaleConfig(11)
	cfg.CacheDir = dir
	cold, err := BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	coldRes, err := RunAllCtx(ctx, cold, 1)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	warmRes, err := RunAllCtx(ctx, warm, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(coldRes) != len(warmRes) {
		t.Fatalf("result counts differ: %d cold, %d warm", len(coldRes), len(warmRes))
	}
	for i := range coldRes {
		if coldRes[i].Output != warmRes[i].Output || coldRes[i].Measured != warmRes[i].Measured {
			t.Errorf("%s: warm-cache output differs from cold", coldRes[i].ID)
		}
	}
	loaded := 0
	for _, st := range warm.StageStatuses() {
		if st.Persisted && st.Outcome == "loaded" {
			loaded++
		}
	}
	if loaded == 0 {
		t.Error("warm run loaded no artifacts — the store was never used")
	}
	// The campaign is the most expensive persisted stage; a warm world
	// must have loaded it, not recomputed it.
	for _, st := range warm.StageStatuses() {
		if st.ID == stage.Campaign && st.Outcome != "loaded" {
			t.Errorf("campaign outcome %q on warm world, want loaded", st.Outcome)
		}
	}
}
