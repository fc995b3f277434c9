package ditl

import (
	"context"
	"math"
	"testing"

	"anycastctx/internal/anycastnet"
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

// TestRebaseAllAffectedEqualsBuild: rebasing onto identically-shaped
// fresh deployments with every recursive marked affected must reproduce
// the original build cell-for-cell — the Rebase half of the scenario
// engine's byte-identity contract, without any scenario on top.
func TestRebaseAllAffectedEqualsBuild(t *testing.T) {
	f := buildFixture(t)
	reb, err := f.camp.Rebase(context.Background(), freshLetters(t, f), nil, nil, allAffected(len(f.pop.Recursives)), false, 5)
	if err != nil {
		t.Fatalf("rebase: %v", err)
	}
	requireSameCampaign(t, f.camp, reb)
}

// TestRebaseNoneAffectedCopies: with nothing affected and unchanged
// deployments, the pure copy/remap path must also reproduce the build.
func TestRebaseNoneAffectedCopies(t *testing.T) {
	f := buildFixture(t)
	affected := make([]bool, len(f.pop.Recursives))
	reb, err := f.camp.Rebase(context.Background(), f.letters, nil, nil, affected, false, 5)
	if err != nil {
		t.Fatalf("rebase: %v", err)
	}
	requireSameCampaign(t, f.camp, reb)
	if &reb.table.routes[0] == &f.camp.table.routes[0] {
		t.Fatalf("rebase aliased the base route table")
	}
}

// TestRebaseContractViolation: shrinking a deployment while claiming no
// recursive is affected must error, not silently carry stale cells.
func TestRebaseContractViolation(t *testing.T) {
	f := buildFixture(t)
	letters := append([]*anycastnet.Deployment(nil), f.letters...)
	li := 0 // letter B: two sites, withdraw site 1
	n := f.camp.numRecs
	hasAlt := false
	for ri := 0; ri < n; ri++ {
		if f.camp.altSite[li*n+ri] == 1 {
			hasAlt = true
			break
		}
	}
	if !hasAlt {
		t.Skip("no recursive drew site 1 as its alternate; violation undetectable by design")
	}
	short, err := anycastnet.NewDeployment(f.g, "B", f.letters[li].Sites[:1])
	if err != nil {
		t.Fatal(err)
	}
	letters[li] = short
	remap := make([][]int, len(letters))
	remap[li] = []int{0, -1}
	affected := make([]bool, len(f.pop.Recursives))
	if _, err := f.camp.Rebase(context.Background(), letters, remap, nil, affected, false, 5); err == nil {
		t.Fatalf("rebase accepted a withdrawn site with no affected recursives")
	}
}

// TestRebaseValidation: malformed argument shapes error out.
func TestRebaseValidation(t *testing.T) {
	f := buildFixture(t)
	n := len(f.pop.Recursives)
	all := make([]bool, n)
	ctx := context.Background()
	if _, err := f.camp.Rebase(ctx, f.letters[:1], nil, nil, all, false, 5); err == nil {
		t.Error("short letter slice accepted")
	}
	if _, err := f.camp.Rebase(ctx, f.letters, make([][]int, 1), nil, all, false, 5); err == nil {
		t.Error("short remap slice accepted")
	}
	if _, err := f.camp.Rebase(ctx, f.letters, nil, f.rates[:1], all, false, 5); err == nil {
		t.Error("short rates slice accepted")
	}
	if _, err := f.camp.Rebase(ctx, f.letters, nil, nil, all[:1], false, 5); err == nil {
		t.Error("short affected slice accepted")
	}
	remap := make([][]int, len(f.letters))
	remap[0] = []int{0, 1}
	if _, err := f.camp.Rebase(ctx, f.letters, remap, nil, all, false, 5); err == nil {
		t.Error("base deployment with a site remap accepted")
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

func allAffected(n int) []bool {
	affected := make([]bool, n)
	for i := range affected {
		affected[i] = true
	}
	return affected
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
	affected := allAffected(len(f.pop.Recursives))
	for _, reprice := range []bool{false, true} {
		reb, err := base.Rebase(context.Background(), letters, nil, nil, affected, reprice, 5)
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
	affected := allAffected(len(f.pop.Recursives))
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
		reb, err := base.Rebase(context.Background(), tc.letters, nil, nil, affected, tc.reprice, 5)
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
// its source recompute their weights; every other reassembled cell
// carries base's doctored value. With reprice nothing is carried, and
// the result equals Build whether the letters are fresh or base's own.
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

	affected := allAffected(n)
	reb, err := base.Rebase(context.Background(), freshLetters(t, f), nil, nil, affected, false, 5)
	if err != nil {
		t.Fatalf("rebase: %v", err)
	}
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

	for _, letters := range [][]*anycastnet.Deployment{f.letters, freshLetters(t, f)} {
		reb, err := base.Rebase(context.Background(), letters, nil, nil, affected, true, 5)
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
	affected := allAffected(len(f.pop.Recursives))
	low := append([]dnssim.Rates(nil), f.rates...)
	for i := range low {
		low[i].RootValidPerDay /= 16
	}
	lowCamp, err := f.camp.Rebase(ctx, f.letters, nil, low, affected, true, 5)
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
		want, err := tc.base.Rebase(ctx, f.letters, nil, tc.rates, affected, true, 5)
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
		got, err := tc.base.Rebase(ctx, f.letters, nil, tc.rates, affected, false, 5)
		if err != nil {
			t.Fatalf("%s: rebase: %v", tc.name, err)
		}
		requireSameCampaign(t, want, got)
	}
}
