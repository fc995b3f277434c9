package bgp

import (
	"context"
	"testing"

	"anycastctx/internal/geo"
	"anycastctx/internal/topology"
)

// seedAndCompare warms base over srcs, seeds variant from it, and fails
// unless every route variant then gives equals a fresh resolver's over
// variant's graph and sites. It returns the seeded count and how many
// sources the variant routes differently from base (another site, path
// or reachability), so a test can show its change moves some decision a
// drop rule must catch.
func seedAndCompare(t *testing.T, base, variant *Resolver, srcs []topology.ASN) (seeded, moved int) {
	t.Helper()
	base.WarmCtx(context.Background(), srcs)
	seeded = variant.SeedFrom(base)
	fresh, err := NewResolver(variant.g, variant.sites)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range srcs {
		vrt, vok := variant.Route(s)
		frt, fok := fresh.Route(s)
		if vok != fok || (vok && !vrt.Equal(frt)) {
			t.Fatalf("AS%d: seeded resolver disagrees with a fresh one", s)
		}
		brt, bok := base.Route(s)
		if bok != fok || (bok && (base.sites[brt.SiteID].Loc != fresh.sites[frt.SiteID].Loc ||
			brt.PathLen != frt.PathLen || brt.Via != frt.Via)) {
			moved++
		}
	}
	return seeded, moved
}

// countCached counts the entries of r's cache that keep admits.
func countCached(r *Resolver, keep func(src topology.ASN, rt Route, ok bool) bool) int {
	n := 0
	r.ForEachCached(func(src topology.ASN, rt Route, ok bool) {
		if keep(src, rt, ok) {
			n++
		}
	})
	return n
}

// TestSeedFromIdentity: a variant with base's graph and sites seeds every
// entry and answers every query from cache, identically to base.
func TestSeedFromIdentity(t *testing.T) {
	g := buildWorld(t, 3)
	sites := deploySites(g, 6, 0.3)
	base, err := NewResolver(g, sites)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewResolver(g, sites)
	if err != nil {
		t.Fatal(err)
	}
	seeded, moved := seedAndCompare(t, base, fresh, g.Eyeballs())
	if seeded != len(g.Eyeballs()) || moved != 0 {
		t.Fatalf("seeded %d of %d entries, %d moved", seeded, len(g.Eyeballs()), moved)
	}
}

// TestSeedFromWithdrawal (rule 2): SeedFrom finds the withdrawn site,
// drops exactly the entries routed onto it and renumbers the survivors.
func TestSeedFromWithdrawal(t *testing.T) {
	g := buildWorld(t, 3)
	sites := deploySites(g, 6, 0.3)
	base, err := NewResolver(g, sites)
	if err != nil {
		t.Fatal(err)
	}
	const withdrawn = 2
	var newSites []Site
	for i, s := range sites {
		if i != withdrawn {
			s.ID = len(newSites)
			newSites = append(newSites, s)
		}
	}
	mut, err := NewResolver(g, newSites)
	if err != nil {
		t.Fatal(err)
	}
	seeded, moved := seedAndCompare(t, base, mut, g.Eyeballs())
	want := countCached(base, func(_ topology.ASN, rt Route, ok bool) bool { return !ok || rt.SiteID != withdrawn })
	if seeded != want || moved == 0 {
		t.Fatalf("seeded %d, want %d off the withdrawn site; %d moved", seeded, want, moved)
	}
}

// TestSeedFromDropsNewPeers (rule 1): on a clone where eyeballs gained
// edges with one host, exactly those eyeballs' entries are dropped.
func TestSeedFromDropsNewPeers(t *testing.T) {
	g := buildWorld(t, 3)
	sites := deploySites(g, 6, 0.1)
	base, err := NewResolver(g, sites)
	if err != nil {
		t.Fatal(err)
	}
	g2 := g.Clone()
	gained := map[topology.ASN]bool{}
	for _, e := range g.Eyeballs()[:80] {
		if !g2.Peered(e, sites[1].Host) {
			g2.Peer(e, sites[1].Host)
			gained[e] = true
		}
	}
	mut, err := NewResolver(g2, sites)
	if err != nil {
		t.Fatal(err)
	}
	seeded, moved := seedAndCompare(t, base, mut, g.Eyeballs())
	if want := len(g.Eyeballs()) - len(gained); seeded != want || moved == 0 {
		t.Fatalf("seeded %d, want %d without the %d new peers; %d moved", seeded, want, len(gained), moved)
	}
}

// TestSeedFromDropsForNewHost (rule 3): a site appended on a new host
// keeps only the direct routes of sources that do not peer with it.
func TestSeedFromDropsForNewHost(t *testing.T) {
	g := buildWorld(t, 3)
	sites := deploySites(g, 4, 0.3)
	base, err := NewResolver(g, sites)
	if err != nil {
		t.Fatal(err)
	}
	g2 := g.Clone()
	loc := geo.Anchors()[7].Coord
	h := g2.AddHostAS("new-host", []geo.Coord{loc}, []topology.ASN{g2.Transits()[7], g2.Tier1s()[0]}, 0.3)
	grown := append(append([]Site(nil), sites...), Site{ID: len(sites), Loc: loc, Host: h.ASN, Global: true})
	mut, err := NewResolver(g2, grown)
	if err != nil {
		t.Fatal(err)
	}
	seeded, moved := seedAndCompare(t, base, mut, g.Eyeballs())
	want := countCached(base, func(src topology.ASN, rt Route, ok bool) bool {
		return ok && rt.Direct && !g2.Peered(src, h.ASN)
	})
	if seeded != want || seeded == 0 || moved == 0 {
		t.Fatalf("seeded %d, want %d direct routes of sources not peered with the new host; %d moved",
			seeded, want, moved)
	}
}

// TestSeedFromDropsForGrownRing (rule 4): a ring grown on its one host
// keeps every route no appended front-end is strictly nearer to the
// route's second-to-last waypoint. Moving a front-end to the front makes
// the ones it passed count as withdrawn and appended again, so the same
// rules cover a reordered ring.
func TestSeedFromDropsForGrownRing(t *testing.T) {
	c := cdnRingCase(t)
	small := c.sites[0]
	base, err := NewResolver(c.g, small)
	if err != nil {
		t.Fatal(err)
	}
	reordered := append([]Site{small[1], small[0]}, small[2:]...)
	for i := range reordered {
		reordered[i].ID = i
	}
	cases := []struct {
		name     string
		sites    []Site
		survives func(id int) bool // which base sites keep their order
		appended []Site
	}{
		{"grown", c.sites[1], func(int) bool { return true }, c.sites[1][len(small):]},
		{"reordered", reordered, func(id int) bool { return id == 1 }, reordered[1:]},
	}
	for _, tc := range cases {
		mut, err := NewResolver(c.g.Clone(), tc.sites)
		if err != nil {
			t.Fatal(err)
		}
		seeded, moved := seedAndCompare(t, base, mut, c.g.Eyeballs())
		want := countCached(base, func(_ topology.ASN, rt Route, ok bool) bool {
			if !ok || !tc.survives(rt.SiteID) {
				return false
			}
			ref := geo.Prepare(rt.Waypoints[len(rt.Waypoints)-2])
			for _, s := range tc.appended {
				if ref.Compare(geo.Prepare(s.Loc), geo.Prepare(small[rt.SiteID].Loc)) < 0 {
					return false
				}
			}
			return true
		})
		if seeded != want || seeded == 0 || moved == 0 {
			t.Errorf("%s: seeded %d, want %d routes no appended front-end beats; %d moved", tc.name, seeded, want, moved)
		}
	}
}

// TestSeedFromSeedsNothing: variants SeedFrom cannot reason about seed
// no entry, and still route like fresh resolvers. A survivor moved
// behind another counts as appended on its host, so on a deployment of
// several hosts it seeds nothing too.
func TestSeedFromSeedsNothing(t *testing.T) {
	g := buildWorld(t, 3)
	sites := deploySites(g, 4, 0.3)
	renumber := func(ss []Site) []Site {
		for i := range ss {
			ss[i].ID = i
		}
		return ss
	}
	shrunkGraph := g.Clone()
	g.Peer(g.Eyeballs()[0], sites[0].Host)
	cases := []struct {
		name  string
		g     *topology.Graph
		sites []Site
	}{
		{"appended on one of several hosts", g, renumber(append(append([]Site(nil), sites...),
			Site{Loc: geo.Anchors()[9].Coord, Host: sites[2].Host, Global: true}))},
		{"survivor moved", g, renumber([]Site{sites[1], sites[0], sites[2], sites[3]})},
		{"peer list shrunk", shrunkGraph, sites},
	}
	base, err := NewResolver(g, sites)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		mut, err := NewResolver(tc.g, tc.sites)
		if err != nil {
			t.Fatal(err)
		}
		if seeded, _ := seedAndCompare(t, base, mut, g.Eyeballs()); seeded != 0 {
			t.Errorf("%s: seeded %d entries, want none", tc.name, seeded)
		}
	}
}
