package ditl

import (
	"context"
	"math"
	"testing"

	"anycastctx/internal/anycastnet"
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
	if a.Route.SiteID != b.Route.SiteID || a.Route.PathLen != b.Route.PathLen ||
		a.Route.Direct != b.Route.Direct || a.Route.Via != b.Route.Via {
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
	affected := make([]bool, len(f.pop.Recursives))
	for i := range affected {
		affected[i] = true
	}
	reb, err := f.camp.Rebase(context.Background(), freshLetters(t, f), nil, nil, affected, false, 5)
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
	if &reb.routes[0] == &f.camp.routes[0] {
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
	base, err := DecodeCampaignArtifact(f.camp.EncodeArtifact(), f.letters, f.pop, f.camp.Zone, f.rates, f.camp.Model, f.camp.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base.routeRTT {
		base.routeRTT[i] += 1000
	}
	const moved = 0
	wp := append([]geo.Coord(nil), base.routes[moved].Waypoints...)
	wp[len(wp)-1].Lat = math.Nextafter(wp[len(wp)-1].Lat, 90)
	base.routes[moved].Waypoints = wp

	affected := make([]bool, len(f.pop.Recursives))
	for i := range affected {
		affected[i] = true
	}
	for _, reprice := range []bool{false, true} {
		reb, err := base.Rebase(context.Background(), f.letters, nil, nil, affected, reprice, 5)
		if err != nil {
			t.Fatalf("reprice=%v: rebase: %v", reprice, err)
		}
		if len(reb.routeRTT) != len(f.camp.routeRTT) {
			t.Fatalf("reprice=%v: %d routes, want %d", reprice, len(reb.routeRTT), len(f.camp.routeRTT))
		}
		for i, fresh := range f.camp.routeRTT {
			want := fresh
			if !reprice && i != moved {
				want = fresh + 1000
			}
			if got := reb.routeRTT[i]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("reprice=%v: route %d RTT %v, want %v", reprice, i, got, want)
			}
		}
	}
}
