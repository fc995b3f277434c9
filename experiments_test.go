package anycastctx

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"anycastctx/internal/ipaddr"
)

var (
	sharedWorld     *World
	sharedWorldOnce sync.Once
	sharedWorldErr  error
)

// testWorld builds one shared test-scale world for all facade tests.
func testWorld(t *testing.T) *World {
	t.Helper()
	sharedWorldOnce.Do(func() {
		sharedWorld, sharedWorldErr = BuildWorld(TestScaleConfig(3))
	})
	if sharedWorldErr != nil {
		t.Fatal(sharedWorldErr)
	}
	return sharedWorld
}

func TestExperimentRegistryComplete(t *testing.T) {
	want := []string{
		"fig1", "fig2a", "fig2b", "fig3", "fig4a", "fig4b", "fig5a", "fig5b",
		"fig6a", "fig6b", "fig7a", "fig7b", "fig8", "fig9", "fig10", "fig11",
		"fig12", "fig13", "fig14", "tab1", "tab23", "tab4", "tab5", "appc", "local",
		"abl-size", "abl-peering", "abl-routing", "abl-tau", "abl-localroot",
		"affinity", "growth", "apps", "continents", "robust1",
	}
	got := map[string]bool{}
	for _, e := range Experiments() {
		got[e.ID] = true
		if e.Title == "" || e.PaperClaim == "" || e.Run == nil {
			t.Errorf("experiment %s incompletely registered", e.ID)
		}
	}
	for _, id := range want {
		if !got[id] {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if len(got) != len(want) {
		t.Errorf("registered %d experiments, want %d", len(got), len(want))
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	w := testWorld(t)
	if _, err := RunExperimentCtx(context.Background(), w, "fig99"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunEveryExperiment(t *testing.T) {
	w := testWorld(t)
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			res, err := RunExperimentCtx(context.Background(), w, e.ID)
			if err != nil {
				t.Fatalf("experiment %s failed: %v", e.ID, err)
			}
			if res.ID != e.ID {
				t.Errorf("result ID %q, want %q", res.ID, e.ID)
			}
			if res.Output == "" {
				t.Error("empty output")
			}
			if res.Measured == "" {
				t.Error("empty measurement summary")
			}
			if strings.Contains(res.Output, "NaN") {
				t.Errorf("output contains NaN:\n%s", res.Output)
			}
		})
	}
}

func TestRunAll(t *testing.T) {
	w := testWorld(t)
	results, err := RunAllCtx(context.Background(), w, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(Experiments()) {
		t.Errorf("RunAllCtx returned %d results for %d experiments", len(results), len(Experiments()))
	}
}

func TestWorldDeterminism(t *testing.T) {
	w1, err := BuildWorld(TestScaleConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	w2, err := BuildWorld(TestScaleConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	r1, err := RunExperimentCtx(context.Background(), w1, "fig3")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunExperimentCtx(context.Background(), w2, "fig3")
	if err != nil {
		t.Fatal(err)
	}
	if r1.Output != r2.Output {
		t.Error("identical seeds produced different fig3 outputs")
	}
	if r1.Measured != r2.Measured {
		t.Error("identical seeds produced different fig3 measurements")
	}
}

func TestBuildWorldValidation(t *testing.T) {
	if _, err := BuildWorld(Config{Seed: 1, Scale: 2}); err == nil {
		t.Error("scale > 1 accepted")
	}
	if _, err := BuildWorld(Config{Seed: 1, Year: 1999}); err == nil {
		t.Error("unknown year accepted")
	}
}

func TestDITL2020World(t *testing.T) {
	cfg := TestScaleConfig(5)
	cfg.Year = DITL2020
	w, err := BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Letters()) != 7 {
		t.Errorf("2020 letters = %d, want 7", len(w.Letters()))
	}
	names := map[string]bool{}
	for _, l := range w.Letters() {
		names[l.Name] = true
	}
	if !names["H"] || names["B"] || names["L"] {
		t.Errorf("2020 letter set wrong: %v", names)
	}
}

// TestExperimentsDoNotPerturbTheWorld: the experiments that deploy on a
// clone of the world graph, assemble campaigns on its route table or
// build a world of their own must leave the shared world's graph, route
// table, campaign and address pool as they found them.
func TestExperimentsDoNotPerturbTheWorld(t *testing.T) {
	w, err := BuildWorld(TestScaleConfig(21))
	if err != nil {
		t.Fatal(err)
	}
	type state struct {
		graph            string
		routes, campaign []byte
		pool             ipaddr.Pool
	}
	snapshot := func() state {
		return state{
			graph:    graphDigest(w.Graph()),
			routes:   w.Campaign().RouteTable().EncodeArtifact(),
			campaign: w.Campaign().EncodeArtifact(),
			pool:     *w.Pop().Pool,
		}
	}
	before := snapshot()
	for _, id := range []string{"abl-size", "abl-peering", "abl-routing", "abl-tau", "growth", "fig11", "apps"} {
		if _, err := RunExperimentCtx(context.Background(), w, id); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	after := snapshot()
	if after.graph != before.graph {
		t.Error("the world graph changed")
	}
	if !bytes.Equal(after.routes, before.routes) {
		t.Error("the route table changed")
	}
	if !bytes.Equal(after.campaign, before.campaign) {
		t.Error("the campaign changed")
	}
	if after.pool != before.pool {
		t.Errorf("the population's pool moved from %+v to %+v", before.pool, after.pool)
	}
}
