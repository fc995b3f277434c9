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

// TestNeedsDeclared is the sufficiency oracle for Needs. Run alone on a
// fresh world, every experiment must leave each stage outside its
// declared Needs' closure pending, and must print what it prints on a
// world with every stage demanded. Accessors only read, so a stage the
// experiment reads but does not declare reads as empty there and shows as
// a diff. Each experiment runs alone twice: on a cold world, which
// computes the closure, and on a warm one, where a persisted stage loads
// without the deps it does not need to load.
func TestNeedsDeclared(t *testing.T) {
	ctx := context.Background()
	cfg := TestScaleConfig(11)
	cfg.CacheDir = t.TempDir()
	full, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := full.Demand(ctx, stage.All()...); err != nil {
		t.Fatal(err)
	}
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			for _, id := range e.Needs {
				if !stage.Valid(id) {
					t.Fatalf("invalid stage %q in Needs", id)
				}
			}
			declared := map[stage.ID]bool{}
			for _, id := range stage.Closure(e.Needs...) {
				declared[id] = true
			}
			want, err := RunExperimentCtx(ctx, full, e.ID)
			if err != nil {
				t.Fatal(err)
			}
			for _, run := range []struct{ name, dir string }{{"cold", ""}, {"warm", cfg.CacheDir}} {
				alone := cfg
				alone.CacheDir = run.dir
				w, err := NewWorld(alone)
				if err != nil {
					t.Fatal(err)
				}
				got, err := RunExperimentCtx(ctx, w, e.ID)
				if err != nil {
					t.Fatalf("%s: %v", run.name, err)
				}
				for _, st := range w.StageStatuses() {
					if !declared[st.ID] && st.Outcome != "pending" {
						t.Errorf("%s: stage %s %s, but Needs %v does not reach it", run.name, st.ID, st.Outcome, e.Needs)
					}
				}
				if got.Measured != want.Measured {
					t.Errorf("%s: Measured differs from the full world's\nalone: %s\nfull:  %s", run.name, got.Measured, want.Measured)
				}
				if got.Output != want.Output {
					t.Errorf("%s: Output differs from the full world's", run.name)
				}
			}
		})
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
