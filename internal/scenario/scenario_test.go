package scenario_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"anycastctx/internal/anycastnet"
	"anycastctx/internal/ditl"
	"anycastctx/internal/obs"
	"anycastctx/internal/scenario"
	"anycastctx/internal/stage"
	"anycastctx/internal/world"
)

func buildWorld(t *testing.T, scale float64) *world.World {
	t.Helper()
	w, err := world.Build(context.Background(), world.Config{Seed: 1, Scale: scale})
	if err != nil {
		t.Fatalf("world build at scale %g: %v", scale, err)
	}
	return w
}

// campaignDigest folds every assignment cell and egress address into one
// hash: two campaigns with equal digests assign every ⟨recursive,
// letter⟩ pair identically.
func campaignDigest(c *ditl.Campaign) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 8)
	u64 := func(v uint64) { binary.LittleEndian.PutUint64(buf, v); h.Write(buf) }
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	n := len(c.Pop.Recursives)
	for li := range c.Letters {
		for ri := 0; ri < n; ri++ {
			a := c.At(li, ri)
			if !a.Reachable {
				u64(^uint64(0))
				continue
			}
			u64(uint64(a.Route.SiteID))
			u64(uint64(a.Route.PathLen))
			if a.Route.Direct {
				u64(1)
			} else {
				u64(0)
			}
			u64(uint64(a.Route.Via))
			f64(a.BaseRTTMs)
			f64(a.TCPMedianRTTMs)
			f64(a.LetterWeight)
			for _, s := range a.Sites() {
				u64(uint64(s.SiteID))
				f64(s.Frac)
			}
		}
	}
	for ri := 0; ri < n; ri++ {
		for _, ip := range c.Egress(ri) {
			h.Write([]byte(ip.String()))
		}
	}
	for _, ip := range c.JunkSources {
		h.Write([]byte(ip.String()))
	}
	f64(c.JunkQueriesPerDay)
	return h.Sum64()
}

// catchmentDigest folds every eyeball's route on every deployment
// (letters and rings) of w.
func catchmentDigest(w *world.World) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 8)
	u64 := func(v uint64) { binary.LittleEndian.PutUint64(buf, v); h.Write(buf) }
	deps := append([]*anycastnet.Deployment(nil), w.Letters()...)
	for _, ring := range w.CDN().Rings {
		deps = append(deps, ring.Deployment)
	}
	for _, d := range deps {
		h.Write([]byte(d.Name))
		for _, src := range w.Graph().Eyeballs() {
			rt, ok := d.Route(src)
			if !ok {
				u64(^uint64(0))
				continue
			}
			u64(uint64(rt.SiteID))
			u64(uint64(rt.PathLen))
			u64(uint64(rt.Via))
			u64(uint64(len(rt.Waypoints)))
		}
	}
	return h.Sum64()
}

func withProcs(t *testing.T, procs int, fn func()) {
	t.Helper()
	if procs > 0 {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
	}
	fn()
}

// TestScenarioEquivalence is the engine's oracle: for every builtin
// scenario (all six mutation kinds), the example specs that compose them
// and a withdrawal that renumbers every surviving site, at two scales and
// two GOMAXPROCS settings, the incremental evaluation must match a
// from-scratch rebuild byte-for-byte — report text, campaign cells, and
// catchments — and the base world's campaign and catchments must be
// unchanged afterwards. Every base letter and ring is warmed over the
// eyeballs first, so each mutated deployment seeds its route cache from a
// full base cache.
func TestScenarioEquivalence(t *testing.T) {
	scales := []float64{0.05, 0.12}
	if testing.Short() {
		scales = scales[:1]
	}
	specs := scenario.Builtins()
	for _, name := range []string{"cdn-expansion", "emergency-drain"} {
		spec, err := scenario.ParseFile("../../examples/scenarios/" + name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	// The builtins withdraw a letter's last site; withdrawing the first
	// renumbers every site the variant shares with base.
	specs = append(specs, scenario.Spec{
		Name:      "withdraw-f-first-site",
		Mutations: []scenario.Mutation{{Kind: scenario.KindWithdrawSite, Target: "F", Site: 0}},
	})
	for _, scale := range scales {
		w := buildWorld(t, scale)
		eyeballs := w.Graph().Eyeballs()
		for _, l := range w.Letters() {
			l.WarmRoutesCtx(context.Background(), eyeballs)
		}
		for _, ring := range w.CDN().Rings {
			ring.Deployment.WarmRoutesCtx(context.Background(), eyeballs)
		}
		b := scenario.NewBaseline(w)
		baseDigest, baseCatchments := campaignDigest(w.Campaign()), catchmentDigest(w)
		for _, procs := range []int{1, 0} {
			for _, spec := range specs {
				spec := spec
				t.Run(fmt.Sprintf("scale%g/j%d/%s", scale, procs, spec.Name), func(t *testing.T) {
					withProcs(t, procs, func() {
						ctx := context.Background()
						inc, err := scenario.Eval(ctx, b, spec, scenario.Options{})
						if err != nil {
							t.Fatalf("incremental eval: %v", err)
						}
						full, err := scenario.Eval(ctx, b, spec, scenario.Options{FullRebuild: true})
						if err != nil {
							t.Fatalf("full-rebuild eval: %v", err)
						}
						incRep, fullRep := inc.Report(ctx), full.Report(ctx)
						if incRep != fullRep {
							t.Errorf("report mismatch:\n--- incremental ---\n%s\n--- full rebuild ---\n%s", incRep, fullRep)
						}
						if di, df := campaignDigest(inc.World.Campaign()), campaignDigest(full.World.Campaign()); di != df {
							t.Errorf("campaign digest mismatch: incremental %x, full %x", di, df)
						}
						if di, df := catchmentDigest(inc.World), catchmentDigest(full.World); di != df {
							t.Errorf("catchment digest mismatch: incremental %x, full %x", di, df)
						}
					})
				})
			}
		}
		if d := campaignDigest(w.Campaign()); d != baseDigest {
			t.Errorf("scale %g: base campaign mutated by scenario evaluation: %x != %x", scale, d, baseDigest)
		}
		if d := catchmentDigest(w); d != baseCatchments {
			t.Errorf("scale %g: base catchments mutated by scenario evaluation: %x != %x", scale, d, baseCatchments)
		}
	}
}

// TestScenarioNoop: an empty mutation list must share the base campaign
// outright and still render identically to a full rebuild.
func TestScenarioNoop(t *testing.T) {
	w := buildWorld(t, world.ScaleFromEnv(0.05))
	b := scenario.NewBaseline(w)
	ctx := context.Background()
	noop := scenario.Spec{Name: "noop"}
	inc, err := scenario.Eval(ctx, b, noop, scenario.Options{})
	if err != nil {
		t.Fatalf("noop eval: %v", err)
	}
	if !inc.CampaignShared() {
		t.Errorf("noop scenario did not share the base campaign")
	}
	if inc.World.Campaign() != w.Campaign() {
		t.Errorf("noop scenario rebuilt the campaign")
	}
	full, err := scenario.Eval(ctx, b, noop, scenario.Options{FullRebuild: true})
	if err != nil {
		t.Fatalf("noop full eval: %v", err)
	}
	if ir, fr := inc.Report(ctx), full.Report(ctx); ir != fr {
		t.Errorf("noop report mismatch:\n--- incremental ---\n%s\n--- full ---\n%s", ir, fr)
	}
	if di, df := campaignDigest(inc.World.Campaign()), campaignDigest(full.World.Campaign()); di != df {
		t.Errorf("noop campaign digest mismatch")
	}
}

// TestSpecParse covers the JSON surface: round-trip, unknown-field
// rejection, and builtin lookup.
func TestSpecParse(t *testing.T) {
	s, err := scenario.Parse([]byte(`{"name":"x","mutations":[{"kind":"withdraw_site","target":"B","site":1}]}`))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if s.Name != "x" || len(s.Mutations) != 1 || s.Mutations[0].Kind != scenario.KindWithdrawSite {
		t.Errorf("parsed spec wrong: %+v", s)
	}
	if _, err := scenario.Parse([]byte(`{"name":"x","mutations":[{"kind":"withdraw_site","sight":3}]}`)); err == nil {
		t.Errorf("unknown field accepted")
	}
	if _, err := scenario.Parse([]byte(`{"mutations":[]}`)); err == nil {
		t.Errorf("nameless spec accepted")
	}
	for _, name := range scenario.BuiltinNames() {
		if _, ok := scenario.Builtin(name); !ok {
			t.Errorf("builtin %s not found by name", name)
		}
	}
	if _, ok := scenario.Builtin("no-such-scenario"); ok {
		t.Errorf("bogus builtin found")
	}
}

// TestScenarioValidation: specs that must be rejected.
func TestScenarioValidation(t *testing.T) {
	w := buildWorld(t, world.ScaleFromEnv(0.05))
	b := scenario.NewBaseline(w)
	ctx := context.Background()
	bad := []scenario.Spec{
		{Name: "no-letter", Mutations: []scenario.Mutation{{Kind: scenario.KindWithdrawSite, Target: "Z", Site: 0}}},
		{Name: "site-range", Mutations: []scenario.Mutation{{Kind: scenario.KindWithdrawSite, Target: "B", Site: 99}}},
		{Name: "no-global", Mutations: []scenario.Mutation{
			{Kind: scenario.KindWithdrawSite, Target: "B", Site: 0},
			{Kind: scenario.KindWithdrawSite, Target: "B", Site: 1},
		}},
		{Name: "twice", Mutations: []scenario.Mutation{
			{Kind: scenario.KindWithdrawSite, Target: "B", Site: 1},
			{Kind: scenario.KindWithdrawSite, Target: "B", Site: 1},
		}},
		{Name: "ring-add", Mutations: []scenario.Mutation{{Kind: scenario.KindAddSite, Target: "R28"}}},
		{Name: "ring-size", Mutations: []scenario.Mutation{{Kind: scenario.KindResizeRing, Target: "R28", Size: 0}}},
		{Name: "ring-huge", Mutations: []scenario.Mutation{{Kind: scenario.KindResizeRing, Target: "R28", Size: 9999}}},
		{Name: "swap-self", Mutations: []scenario.Mutation{{Kind: scenario.KindSwapLetters, Target: "B", With: "B"}}},
		{Name: "swap-combine", Mutations: []scenario.Mutation{
			{Kind: scenario.KindSwapLetters, Target: "B", With: "F"},
			{Kind: scenario.KindWithdrawSite, Target: "B", Site: 0},
		}},
		{Name: "surge-zero", Mutations: []scenario.Mutation{{Kind: scenario.KindTrafficSurge, Factor: 0}}},
		{Name: "unknown-kind", Mutations: []scenario.Mutation{{Kind: "reboot_internet"}}},
	}
	for _, spec := range bad {
		if _, err := scenario.Eval(ctx, b, spec, scenario.Options{}); err == nil {
			t.Errorf("spec %s: expected error, got none", spec.Name)
		}
	}
}

// TestCatchmentShiftDirection sanity-checks one concrete scenario: after
// withdrawing one of B's two sites, the survivor must carry every
// reachable source.
func TestCatchmentShiftDirection(t *testing.T) {
	w := buildWorld(t, world.ScaleFromEnv(0.05))
	b := scenario.NewBaseline(w)
	ctx := context.Background()
	spec, _ := scenario.Builtin("withdraw-b-site")
	res, err := scenario.Eval(ctx, b, spec, scenario.Options{})
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	var li int = -1
	for i, l := range w.Letters() {
		if l.Name == "B" {
			li = i
		}
	}
	if li < 0 {
		t.Fatalf("no letter B")
	}
	mut := res.World.Letters()[li]
	if got := len(mut.Sites); got != 1 {
		t.Fatalf("B has %d sites after withdrawal, want 1", got)
	}
	for _, src := range w.Graph().Eyeballs() {
		if rt, ok := mut.Route(src); ok && rt.SiteID != 0 {
			t.Fatalf("AS%d routed to site %d of a 1-site deployment", src, rt.SiteID)
		}
	}
}

// TestAmbiguousSpecsRejected covers specs whose evaluation would not
// match what they say: chained swaps, which would duplicate one
// deployment and lose another; a repeated surge, of which only the last
// factor would apply; and a file holding two specs, of which only the
// first would be read.
func TestAmbiguousSpecsRejected(t *testing.T) {
	w := buildWorld(t, 0.05)
	b := scenario.NewBaseline(w)
	ctx := context.Background()
	cases := []struct{ name, spec string }{
		{"chained-swaps", `{"name":"x","mutations":[
			{"kind":"swap_letters","target":"B","with":"F"},
			{"kind":"swap_letters","target":"B","with":"C"}]}`},
		{"swap-back", `{"name":"x","mutations":[
			{"kind":"swap_letters","target":"B","with":"F"},
			{"kind":"swap_letters","target":"F","with":"B"}]}`},
		{"surge-raised", `{"name":"x","mutations":[
			{"kind":"traffic_surge","factor":2},
			{"kind":"traffic_surge","factor":3}]}`},
		{"surge-reset", `{"name":"x","mutations":[
			{"kind":"traffic_surge","factor":2},
			{"kind":"traffic_surge","factor":1}]}`},
		{"trailing-spec", `{"name":"x","mutations":[]}
			{"name":"y","mutations":[{"kind":"traffic_surge","factor":2}]}`},
		{"trailing-garbage", `{"name":"x","mutations":[]} }`},
	}
	for _, tc := range cases {
		spec, err := scenario.Parse([]byte(tc.spec))
		if err == nil {
			_, err = scenario.Eval(ctx, b, spec, scenario.Options{})
		}
		if err == nil {
			t.Errorf("%s: accepted, want an error", tc.name)
		}
	}
	if _, err := scenario.Parse([]byte("{\"name\":\"x\",\"mutations\":[]}\n\t \n")); err != nil {
		t.Errorf("trailing whitespace rejected: %v", err)
	}
}

// TestScenariosOnWarmWorld evaluates every builtin on worlds loaded
// from a filled artifact store: their reports and campaigns must equal
// those the cold world that filled the store gives. The warm base
// campaign and its route table are decoded, so its routes share no
// memory with the resolver caches, and the RTTs Rebase carries over must
// be matched by route value. One warm world demands every classic stage,
// the other only the campaign, which loads the route table as a
// load-dep; in both the letters' caches start empty and the scenario
// resolves every route it reads itself.
func TestScenariosOnWarmWorld(t *testing.T) {
	ctx := context.Background()
	cfg := world.Config{Seed: 1, Scale: world.ScaleFromEnv(0.05), CacheDir: t.TempDir()}
	cold, err := world.Build(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.Demand(ctx, stage.All()...); err != nil {
		t.Fatal(err)
	}
	classic, err := world.Build(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := world.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := bare.Demand(ctx, stage.Campaign); err != nil {
		t.Fatal(err)
	}
	warms := []struct {
		name string
		base *scenario.Baseline
	}{{"classic", scenario.NewBaseline(classic)}, {"campaign-only", scenario.NewBaseline(bare)}}
	for _, warm := range warms {
		for _, st := range warm.base.W.StageStatuses() {
			want := map[stage.ID]string{stage.Campaign: "loaded", stage.Routes: "loaded"}[st.ID]
			if want != "" && st.Outcome != want {
				t.Fatalf("%s: warm stage %s %q, want %q", warm.name, st.ID, st.Outcome, want)
			}
		}
	}
	coldBase := scenario.NewBaseline(cold)
	for _, spec := range scenario.Builtins() {
		want, err := scenario.Eval(ctx, coldBase, spec, scenario.Options{})
		if err != nil {
			t.Fatalf("%s: cold eval: %v", spec.Name, err)
		}
		wantRep, wantDigest := want.Report(ctx), campaignDigest(want.World.Campaign())
		for _, warm := range warms {
			got, err := scenario.Eval(ctx, warm.base, spec, scenario.Options{})
			if err != nil {
				t.Fatalf("%s/%s: warm eval: %v", warm.name, spec.Name, err)
			}
			if rep := got.Report(ctx); rep != wantRep {
				t.Errorf("%s/%s: report mismatch:\n--- cold ---\n%s\n--- warm ---\n%s", warm.name, spec.Name, wantRep, rep)
			}
			if d := campaignDigest(got.World.Campaign()); d != wantDigest {
				t.Errorf("%s/%s: campaign digest: cold %x, warm %x", warm.name, spec.Name, wantDigest, d)
			}
		}
	}
}

// TestFirstEvaluationSeeds: a first evaluation resolves each mutated
// deployment's base routes before deriving the variant, so the variant
// seeds its memo even where the base memo starts empty — a ring on a
// freshly built world, a letter on a world loaded from the store — and
// the report still equals the full rebuild's.
func TestFirstEvaluationSeeds(t *testing.T) {
	ctx := context.Background()
	cfg := world.Config{Seed: 1, Scale: world.ScaleFromEnv(0.05), CacheDir: t.TempDir()}
	fresh, err := world.Build(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := world.Build(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range loaded.StageStatuses() {
		if st.ID == stage.Routes && st.Outcome != "loaded" {
			t.Fatalf("second build's routes stage %q, want loaded", st.Outcome)
		}
	}
	cases := []struct {
		spec string
		w    *world.World
	}{{"ring-r28-resize", fresh}, {"withdraw-f-site", loaded}}
	for _, tc := range cases {
		spec, ok := scenario.Builtin(tc.spec)
		if !ok {
			t.Fatalf("no builtin %s", tc.spec)
		}
		b := scenario.NewBaseline(tc.w)
		before := obs.TakeSnapshot()
		inc, err := scenario.Eval(ctx, b, spec, scenario.Options{})
		if err != nil {
			t.Fatalf("%s: incremental eval: %v", tc.spec, err)
		}
		if seeded := obs.TakeSnapshot().CounterDeltas(before)["bgp.route_cache_seeded"]; seeded == 0 {
			t.Errorf("%s: first evaluation seeded no route", tc.spec)
		}
		full, err := scenario.Eval(ctx, b, spec, scenario.Options{FullRebuild: true})
		if err != nil {
			t.Fatalf("%s: full-rebuild eval: %v", tc.spec, err)
		}
		if rep, fullRep := inc.Report(ctx), full.Report(ctx); rep != fullRep {
			t.Errorf("%s: report mismatch:\n--- incremental ---\n%s\n--- full rebuild ---\n%s", tc.spec, rep, fullRep)
		}
	}
}
