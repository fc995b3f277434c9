package ditl

import (
	"bytes"
	"context"
	"math"
	"testing"

	"anycastctx/internal/anycastnet"
	"anycastctx/internal/bgp"
	"anycastctx/internal/dnssim"
	"anycastctx/internal/geo"
)

// freshLetters rebuilds every deployment of f with an empty route cache,
// same sites, same graph — the from-scratch shape Rebase must reproduce.
func freshLetters(t *testing.T, f *fixture) []*anycastnet.Deployment {
	t.Helper()
	out := make([]*anycastnet.Deployment, len(f.letters))
	for i, l := range f.letters {
		d, err := anycastnet.NewDeployment(f.g, l.Name, l.Sites)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = d
	}
	return out
}

func sameAssignment(a, b Assignment) bool {
	if a.Reachable != b.Reachable {
		return false
	}
	if !a.Reachable {
		return true
	}
	if !a.Route.Equal(b.Route) {
		return false
	}
	if math.Float64bits(a.BaseRTTMs) != math.Float64bits(b.BaseRTTMs) ||
		math.Float64bits(a.TCPMedianRTTMs) != math.Float64bits(b.TCPMedianRTTMs) ||
		math.Float64bits(a.LetterWeight) != math.Float64bits(b.LetterWeight) {
		return false
	}
	as, bs := a.Sites(), b.Sites()
	if len(as) != len(bs) {
		return false
	}
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

func requireSameCampaign(t *testing.T, want, got *Campaign) {
	t.Helper()
	n := want.NumRecursives()
	for li := range want.Letters {
		for ri := 0; ri < n; ri++ {
			if a, b := want.At(li, ri), got.At(li, ri); !sameAssignment(a, b) {
				t.Fatalf("cell (letter %d, rec %d) differs:\nwant %+v\ngot  %+v", li, ri, a, b)
			}
		}
	}
	for ri := 0; ri < n; ri++ {
		we, ge := want.Egress(ri), got.Egress(ri)
		if len(we) != len(ge) {
			t.Fatalf("rec %d egress count %d != %d", ri, len(ge), len(we))
		}
		for i := range we {
			if we[i] != ge[i] {
				t.Fatalf("rec %d egress %d differs", ri, i)
			}
		}
	}
	if len(want.JunkSources) != len(got.JunkSources) || want.JunkQueriesPerDay != got.JunkQueriesPerDay {
		t.Fatalf("junk sources differ")
	}
}

// TestRebaseFreshLettersEqualsBuild: rebasing onto identically-shaped
// fresh deployments must reproduce the original build cell-for-cell —
// the Rebase half of the scenario engine's byte-identity contract,
// without any scenario on top.
func TestRebaseFreshLettersEqualsBuild(t *testing.T) {
	f := buildFixture(t)
	reb, err := f.camp.Rebase(context.Background(), freshLetters(t, f), nil, f.camp.Cfg.TauMs, false, 5)
	if err != nil {
		t.Fatalf("rebase: %v", err)
	}
	requireSameCampaign(t, f.camp, reb)
}

// TestRebaseBaseLettersShareTable: a rebase on base's own deployments
// reproduces the build and shares base's route table, which never
// changes once built; under reprice it builds a table of its own.
func TestRebaseBaseLettersShareTable(t *testing.T) {
	f := buildFixture(t)
	for _, reprice := range []bool{false, true} {
		reb, err := f.camp.Rebase(context.Background(), f.letters, nil, f.camp.Cfg.TauMs, reprice, 5)
		if err != nil {
			t.Fatalf("reprice=%v: rebase: %v", reprice, err)
		}
		requireSameCampaign(t, f.camp, reb)
		if shared := reb.table == f.camp.table; shared == reprice {
			t.Fatalf("reprice=%v: rebase shares the base route table: %v", reprice, shared)
		}
	}
}

// TestRebaseAtOtherTemperatures: a rebase on base's own deployments at
// another temperature equals, byte for byte, the campaign Assemble builds
// on the same table and rates at that temperature, with reprice or
// without, and its /24 join is base's, since the join reads no letter
// weight. On the fixture's rates every cell passes the TCP volume gate at
// any weight, so a second base runs on rates cut sixteenfold, where
// cells newly pass the gate and draw a median, or fall below it.
func TestRebaseAtOtherTemperatures(t *testing.T) {
	f := buildFixture(t)
	ctx := context.Background()
	low := append([]dnssim.Rates(nil), f.rates...)
	for i := range low {
		low[i].RootValidPerDay /= 16
	}
	lowCamp, err := f.camp.Rebase(ctx, f.letters, low, f.camp.Cfg.TauMs, true, 5)
	if err != nil {
		t.Fatal(err)
	}
	drawn, dropped := 0, 0
	for _, base := range []*Campaign{f.camp, lowCamp} {
		baseJoin := EncodeJoin(base.JoinCDNCtx(ctx, f.cdn, false))
		for _, tau := range []float64{5, 120, 100000} {
			want, err := Assemble(ctx, base.table, f.letters, f.pop, base.Zone, base.Rates, base.Model, Config{TauMs: tau}, 5)
			if err != nil {
				t.Fatalf("tau %v: assemble: %v", tau, err)
			}
			for k, m := range base.tcpMedian {
				switch {
				case math.IsNaN(m) && !math.IsNaN(want.tcpMedian[k]):
					drawn++
				case !math.IsNaN(m) && math.IsNaN(want.tcpMedian[k]):
					dropped++
				}
			}
			for _, reprice := range []bool{false, true} {
				got, err := base.Rebase(ctx, f.letters, nil, tau, reprice, 5)
				if err != nil {
					t.Fatalf("tau %v, reprice=%v: rebase: %v", tau, reprice, err)
				}
				if got.Cfg != want.Cfg {
					t.Fatalf("tau %v, reprice=%v: config %+v, want %+v", tau, reprice, got.Cfg, want.Cfg)
				}
				if !bytes.Equal(got.EncodeArtifact(), want.EncodeArtifact()) {
					requireSameCampaign(t, want, got)
					t.Fatalf("tau %v, reprice=%v: campaign artifact differs from Assemble's", tau, reprice)
				}
				if !bytes.Equal(EncodeJoin(got.JoinCDNCtx(ctx, f.cdn, false)), baseJoin) {
					t.Fatalf("tau %v, reprice=%v: join differs from base's", tau, reprice)
				}
			}
		}
	}
	if drawn == 0 || dropped == 0 {
		t.Fatalf("%d cells newly drew a TCP median and %d dropped one; the test shows too little", drawn, dropped)
	}
}

// withdrawSite returns letter li of f without site, the remaining sites
// renumbered densely as a scenario withdrawal renumbers them.
func withdrawSite(t *testing.T, f *fixture, li, site int) *anycastnet.Deployment {
	t.Helper()
	var sites []bgp.Site
	for i, s := range f.letters[li].Sites {
		if i != site {
			s.ID = len(sites)
			sites = append(sites, s)
		}
	}
	d, err := anycastnet.NewDeployment(f.g, f.letters[li].Name, sites)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestRebaseWithdrawnAlternateRedraws: withdrawing a site that some
// recursives drew as their alternate, while every other letter stays
// base's own, must give exactly the full re-derivation's cells: the
// mutated letter redraws its site shares instead of carrying alternates
// that no longer exist or were renumbered.
func TestRebaseWithdrawnAlternateRedraws(t *testing.T) {
	f := buildFixture(t)
	const li, site = 1, 4 // letter C: ten sites
	n := f.camp.numRecs
	drew := 0
	for ri := 0; ri < n; ri++ {
		if f.camp.altSite[li*n+ri] == site {
			drew++
		}
	}
	if drew == 0 {
		t.Fatalf("no recursive drew site %d of letter %d as its alternate; the test shows nothing", site, li)
	}
	letters := append([]*anycastnet.Deployment(nil), f.letters...)
	letters[li] = withdrawSite(t, f, li, site)
	ctx := context.Background()
	want, err := f.camp.Rebase(ctx, letters, nil, f.camp.Cfg.TauMs, true, 5)
	if err != nil {
		t.Fatalf("reprice: %v", err)
	}
	got, err := f.camp.Rebase(ctx, letters, nil, f.camp.Cfg.TauMs, false, 5)
	if err != nil {
		t.Fatalf("rebase: %v", err)
	}
	requireSameCampaign(t, want, got)
}

// TestRebaseValidation: malformed argument shapes error out.
func TestRebaseValidation(t *testing.T) {
	f := buildFixture(t)
	ctx := context.Background()
	if _, err := f.camp.Rebase(ctx, f.letters[:1], nil, f.camp.Cfg.TauMs, false, 5); err == nil {
		t.Error("short letter slice accepted")
	}
	if _, err := f.camp.Rebase(ctx, f.letters, f.rates[:1], f.camp.Cfg.TauMs, false, 5); err == nil {
		t.Error("short rates slice accepted")
	}
}

// decodeBase decodes f's campaign and route table from their
// artifacts, so the copy shares no memory with f.camp or the resolver
// caches and can be doctored to show which cells a rebase carries from
// it.
func decodeBase(t *testing.T, f *fixture) *Campaign {
	t.Helper()
	table, err := DecodeRouteTable(f.camp.table.EncodeArtifact(), f.letters, f.pop)
	if err != nil {
		t.Fatal(err)
	}
	base, err := DecodeCampaignArtifact(f.camp.EncodeArtifact(), table, f.letters, f.pop, f.camp.Zone, f.rates, f.camp.Model, f.camp.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	return base
}

// nudgeRoute moves the last waypoint of base route ix by one ULP, so no
// resolved route equals it bit for bit.
func nudgeRoute(base *Campaign, ix uint32) {
	wp := append([]geo.Coord(nil), base.table.routes[ix].Waypoints...)
	wp[len(wp)-1].Lat = math.Nextafter(wp[len(wp)-1].Lat, 90)
	base.table.routes[ix].Waypoints = wp
}

// TestRebaseCarriesRTTOnlyForIdenticalRoutes: without reprice, a route
// bit-identical to the base campaign's route for the same letter and
// source carries the base RTT, and a route that differs from it in one
// waypoint coordinate is priced afresh; with reprice every route is
// priced afresh. The base is decoded from its artifact, so its routes
// share no memory with the resolver caches, and its RTTs are doctored so
// the result shows which path each entry took.
func TestRebaseCarriesRTTOnlyForIdenticalRoutes(t *testing.T) {
	f := buildFixture(t)
	base := decodeBase(t, f)
	for i := range base.table.rtt {
		base.table.rtt[i] += 1000
	}
	const moved = 0
	nudgeRoute(base, moved)

	// Fresh deployments: base's own would have their cells copied
	// without a resolve (TestRebaseCopiesBaseDeploymentCells).
	letters := freshLetters(t, f)
	for _, reprice := range []bool{false, true} {
		reb, err := base.Rebase(context.Background(), letters, nil, base.Cfg.TauMs, reprice, 5)
		if err != nil {
			t.Fatalf("reprice=%v: rebase: %v", reprice, err)
		}
		if len(reb.table.rtt) != len(f.camp.table.rtt) {
			t.Fatalf("reprice=%v: %d routes, want %d", reprice, len(reb.table.rtt), len(f.camp.table.rtt))
		}
		for i, fresh := range f.camp.table.rtt {
			want := fresh
			if !reprice && i != moved {
				want = fresh + 1000
			}
			if got := reb.table.rtt[i]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("reprice=%v: route %d RTT %v, want %v", reprice, i, got, want)
			}
		}
	}
}

// TestRebaseCopiesBaseDeploymentCells: a letter passed as base's own
// deployment takes base's route-table cells as they are, without a
// resolve, so a doctored base route and RTT show up in the result; the
// same letter as a fresh deployment resolves its route, and reprice
// resolves even base's own deployment.
func TestRebaseCopiesBaseDeploymentCells(t *testing.T) {
	f := buildFixture(t)
	base := decodeBase(t, f)
	for i := range base.table.rtt {
		base.table.rtt[i] += 1000
	}
	const li = 0
	moved := base.table.ix.at(li, 0)
	for ri := 1; moved == noRoute; ri++ {
		moved = base.table.ix.at(li, ri)
	}
	nudgeRoute(base, moved)

	fresh := freshLetters(t, f)
	mixed := append([]*anycastnet.Deployment(nil), fresh...)
	mixed[li] = f.letters[li]
	for _, tc := range []struct {
		name    string
		letters []*anycastnet.Deployment
		reprice bool
		copied  bool
	}{
		{"base deployment", mixed, false, true},
		{"fresh deployment", fresh, false, false},
		{"base deployment, reprice", mixed, true, false},
	} {
		reb, err := base.Rebase(context.Background(), tc.letters, nil, base.Cfg.TauMs, tc.reprice, 5)
		if err != nil {
			t.Fatalf("%s: rebase: %v", tc.name, err)
		}
		want := f.camp
		if tc.copied {
			want = base
		}
		if got := reb.table.routes[moved]; !got.Equal(want.table.routes[moved]) {
			t.Errorf("%s: route %d is %+v, want %+v", tc.name, moved, got, want.table.routes[moved])
		}
		if got := reb.table.rtt[moved]; math.Float64bits(got) != math.Float64bits(want.table.rtt[moved]) {
			t.Errorf("%s: route %d RTT %v, want %v", tc.name, moved, got, want.table.rtt[moved])
		}
	}
}

// TestRebaseCarriesMediansAndWeightsForUnchangedRTTs: one route of the
// base is nudged and its RTT doctored, so it re-prices to a different
// RTT, and every base TCP median and letter weight is doctored. Only the
// cells on that route redraw their medians, and only the recursives of
// its source recompute their weights, which is what the rebase counter
// counts; every other cell carries base's doctored value. With reprice
// nothing is carried, and the result equals Build whether the letters
// are fresh or base's own.
func TestRebaseCarriesMediansAndWeightsForUnchangedRTTs(t *testing.T) {
	f := buildFixture(t)
	base := decodeBase(t, f)
	n := base.numRecs
	moved, ml := noRoute, 0
	for k := range base.tcpMedian {
		if ix := cellEntry(base, k); ix != noRoute && !math.IsNaN(base.tcpMedian[k]) {
			moved, ml = ix, k/n
			break
		}
	}
	if moved == noRoute {
		t.Fatal("no cell drew a TCP median")
	}
	nudgeRoute(base, moved)
	base.table.rtt[moved] += 1000
	for k := range base.tcpMedian {
		base.tcpMedian[k] += 1000 // NaN stays NaN: undrawn cells stay undrawn
		base.letterWeight[k] = math.Nextafter(base.letterWeight[k], 2)
	}

	before := obsRebaseAssembly.Value()
	reb, err := base.Rebase(context.Background(), freshLetters(t, f), nil, base.Cfg.TauMs, false, 5)
	if err != nil {
		t.Fatalf("rebase: %v", err)
	}
	reweighed := obsRebaseAssembly.Value() - before
	recomputed, redrawn := 0, 0
	for ri := 0; ri < n; ri++ {
		onMoved := base.table.ix.at(ml, ri) == moved
		if onMoved {
			recomputed++
		}
		for li := range base.Letters {
			k := li*n + ri
			wantW := base.letterWeight[k]
			if onMoved {
				wantW = f.camp.letterWeight[k]
			}
			if got := reb.letterWeight[k]; math.Float64bits(got) != math.Float64bits(wantW) {
				t.Fatalf("letter %d recursive %d (on moved route: %v): weight %v, want %v", li, ri, onMoved, got, wantW)
			}
			wantM := base.tcpMedian[k]
			if base.table.ix.at(li, ri) == moved {
				wantM = f.camp.tcpMedian[k]
				if !math.IsNaN(wantM) {
					redrawn++
				}
			}
			if got := reb.tcpMedian[k]; math.Float64bits(got) != math.Float64bits(wantM) {
				t.Fatalf("letter %d recursive %d: TCP median %v, want %v", li, ri, got, wantM)
			}
		}
	}
	if recomputed == 0 || recomputed == n || redrawn == 0 {
		t.Fatalf("%d of %d recursives recomputed weights and %d medians were redrawn; the test shows nothing", recomputed, n, redrawn)
	}
	if reweighed != uint64(recomputed) {
		t.Fatalf("rebase counted %d recursives reweighed, %d recomputed their weights", reweighed, recomputed)
	}

	for _, letters := range [][]*anycastnet.Deployment{f.letters, freshLetters(t, f)} {
		reb, err := base.Rebase(context.Background(), letters, nil, base.Cfg.TauMs, true, 5)
		if err != nil {
			t.Fatalf("reprice: rebase: %v", err)
		}
		requireSameCampaign(t, f.camp, reb)
	}
}

// TestRebaseMediansFollowTheGate: rates cut sixteenfold push cells below
// the TCP volume gate, and restoring them pushes those cells back over
// it. A cell that crosses downwards drops its base median and one that
// crosses upwards draws the median its base never drew, so each rebase
// equals the full re-derivation on the same rates.
func TestRebaseMediansFollowTheGate(t *testing.T) {
	f := buildFixture(t)
	ctx := context.Background()
	low := append([]dnssim.Rates(nil), f.rates...)
	for i := range low {
		low[i].RootValidPerDay /= 16
	}
	lowCamp, err := f.camp.Rebase(ctx, f.letters, low, f.camp.Cfg.TauMs, true, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		base  *Campaign
		rates []dnssim.Rates
	}{
		{"down", f.camp, low},
		{"up", lowCamp, f.rates},
	} {
		want, err := tc.base.Rebase(ctx, f.letters, tc.rates, tc.base.Cfg.TauMs, true, 5)
		if err != nil {
			t.Fatalf("%s: reprice: %v", tc.name, err)
		}
		crossed := 0
		for k, m := range tc.base.tcpMedian {
			if math.IsNaN(m) != math.IsNaN(want.tcpMedian[k]) {
				crossed++
			}
		}
		if crossed == 0 {
			t.Fatalf("%s: no cell crossed the TCP volume gate", tc.name)
		}
		got, err := tc.base.Rebase(ctx, f.letters, tc.rates, tc.base.Cfg.TauMs, false, 5)
		if err != nil {
			t.Fatalf("%s: rebase: %v", tc.name, err)
		}
		requireSameCampaign(t, want, got)
	}
}

// TestRebaseCarriesSiteSharesMediansAndEgress doctors every secondary
// share, TCP median and egress address of the base. On base's letters
// and rates a rebase carries all three. Fresh letters redraw the site
// shares but, over unchanged RTTs, still carry the medians and the
// egress store. Rates cut sixteenfold re-derive the egress store and
// drop the medians of cells that fall below the TCP volume gate,
// carrying base's only where both sides drew one over the same RTT.
// Under reprice nothing is carried. Whatever is not carried equals the
// full re-derivation from the undoctored campaign.
func TestRebaseCarriesSiteSharesMediansAndEgress(t *testing.T) {
	f := buildFixture(t)
	base := decodeBase(t, f)
	for k, alt := range base.altSite {
		if alt != noAltSite {
			base.altFrac[k] = math.Nextafter(base.altFrac[k], 1)
		}
		base.tcpMedian[k] += 1000 // NaN stays NaN: undrawn cells stay undrawn
	}
	for i := range base.egressFlat {
		base.egressFlat[i]++
	}
	cut := append([]dnssim.Rates(nil), f.rates...)
	for i := range cut {
		cut[i].RootValidPerDay /= 16
	}

	ctx := context.Background()
	fresh := freshLetters(t, f)
	for _, tc := range []struct {
		name    string
		letters []*anycastnet.Deployment
		rates   []dnssim.Rates
		reprice bool
		// sites and egress: carried from base; rows: TCP medians carried
		// row by row; cells: carried cell by cell over the same RTT.
		sites, rows, cells, egress bool
	}{
		{"base letters and rates", f.letters, nil, false, true, true, true, true},
		{"fresh letters", fresh, nil, false, false, true, true, true},
		{"cut rates", f.letters, cut, false, true, false, true, false},
		{"reprice", f.letters, nil, true, false, false, false, false},
	} {
		want, err := f.camp.Rebase(ctx, tc.letters, tc.rates, f.camp.Cfg.TauMs, true, 5)
		if err != nil {
			t.Fatalf("%s: reprice: %v", tc.name, err)
		}
		got, err := base.Rebase(ctx, tc.letters, tc.rates, base.Cfg.TauMs, tc.reprice, 5)
		if err != nil {
			t.Fatalf("%s: rebase: %v", tc.name, err)
		}
		crossed := 0
		for k := range got.altSite {
			wantSite, wantFrac := want.altSite[k], want.altFrac[k]
			if tc.sites {
				wantSite, wantFrac = base.altSite[k], base.altFrac[k]
			}
			if got.altSite[k] != wantSite || math.Float64bits(got.altFrac[k]) != math.Float64bits(wantFrac) {
				t.Fatalf("%s: cell %d site share (%d, %v), want (%d, %v)", tc.name, k, got.altSite[k], got.altFrac[k], wantSite, wantFrac)
			}
			wantM := want.tcpMedian[k]
			if math.IsNaN(base.tcpMedian[k]) != math.IsNaN(wantM) {
				crossed++
			}
			if tc.rows || tc.cells && !math.IsNaN(wantM) && !math.IsNaN(base.tcpMedian[k]) {
				wantM = base.tcpMedian[k]
			}
			if math.Float64bits(got.tcpMedian[k]) != math.Float64bits(wantM) {
				t.Fatalf("%s: cell %d TCP median %v, want %v", tc.name, k, got.tcpMedian[k], wantM)
			}
		}
		if tc.rates != nil && crossed == 0 {
			t.Fatalf("%s: no cell crossed the TCP volume gate; the test shows nothing", tc.name)
		}
		wantEgress := want.egressFlat
		if tc.egress {
			wantEgress = base.egressFlat
		}
		if len(got.egressFlat) != len(wantEgress) {
			t.Fatalf("%s: %d egress addresses, want %d", tc.name, len(got.egressFlat), len(wantEgress))
		}
		for i := range wantEgress {
			if got.egressFlat[i] != wantEgress[i] {
				t.Fatalf("%s: egress address %d is %v, want %v", tc.name, i, got.egressFlat[i], wantEgress[i])
			}
		}
	}
}
