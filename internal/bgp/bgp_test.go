package bgp

import (
	"math/rand"
	"testing"

	"anycastctx/internal/geo"
	"anycastctx/internal/topology"
)

// buildWorld creates a small graph plus helpers for deployment tests.
func buildWorld(t *testing.T, seed int64) *topology.Graph {
	t.Helper()
	regions := geo.GenerateRegions(geo.PaperRegionCounts, rand.New(rand.NewSource(42)))
	g, err := topology.New(topology.Config{Seed: seed, NumTier1: 6, NumTransit: 40, NumEyeball: 500}, regions)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// deploySites places n host ASes near the world's biggest metros and
// returns the deployment.
func deploySites(g *topology.Graph, n int, richness float64) []Site {
	anchors := geo.Anchors()
	sites := make([]Site, 0, n)
	for i := 0; i < n; i++ {
		a := anchors[i%len(anchors)]
		up := g.Transits()[i%len(g.Transits())]
		host := g.AddHostAS("site-host", []geo.Coord{a.Coord}, []topology.ASN{up, g.Tier1s()[i%len(g.Tier1s())]}, richness)
		sites = append(sites, Site{ID: i, Loc: a.Coord, Host: host.ASN, Global: true})
	}
	return sites
}

func TestNewResolverValidation(t *testing.T) {
	g := buildWorld(t, 1)
	if _, err := NewResolver(g, nil); err == nil {
		t.Error("empty deployment accepted")
	}
	if _, err := NewResolver(g, []Site{{ID: 0, Host: 999999}}); err == nil {
		t.Error("unknown host accepted")
	}
	if _, err := NewResolver(g, []Site{{ID: 5, Host: g.Transits()[0]}}); err == nil {
		t.Error("non-dense IDs accepted")
	}
}

func TestRouteBasics(t *testing.T) {
	g := buildWorld(t, 2)
	sites := deploySites(g, 10, 0.3)
	r, err := NewResolver(g, sites)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Eyeballs() {
		rt, ok := r.Route(e)
		if !ok {
			t.Fatalf("no route for eyeball %d", e)
		}
		if rt.SiteID < 0 || rt.SiteID >= len(sites) {
			t.Fatalf("site ID %d out of range", rt.SiteID)
		}
		if rt.PathLen < 2 || rt.PathLen > 5 {
			t.Fatalf("path length %d out of range", rt.PathLen)
		}
		if len(rt.Waypoints) < 2 {
			t.Fatalf("waypoints too short: %v", rt.Waypoints)
		}
		src := g.AS(e)
		if rt.Waypoints[0] != src.Loc {
			t.Fatal("route does not start at source")
		}
		if last := rt.Waypoints[len(rt.Waypoints)-1]; last != sites[rt.SiteID].Loc {
			t.Fatal("route does not end at chosen site")
		}
		if rt.Direct != (rt.PathLen == 2) {
			t.Fatalf("Direct=%v but PathLen=%d", rt.Direct, rt.PathLen)
		}
		if rt.Dist() < geo.DistanceKm(src.Loc, sites[rt.SiteID].Loc)-1 {
			t.Fatal("path distance shorter than great circle")
		}
	}
}

func TestRouteUnknownSource(t *testing.T) {
	g := buildWorld(t, 3)
	r, err := NewResolver(g, deploySites(g, 3, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Route(topology.ASN(123456)); ok {
		t.Error("route for unknown AS")
	}
}

func TestRouteDeterministic(t *testing.T) {
	g := buildWorld(t, 4)
	sites := deploySites(g, 20, 0.3)
	r1, err := NewResolver(g, sites)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewResolver(g, sites)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Eyeballs() {
		a, _ := r1.Route(e)
		b, _ := r2.Route(e)
		if a.SiteID != b.SiteID || a.PathLen != b.PathLen {
			t.Fatalf("route for %d not deterministic: %+v vs %+v", e, a, b)
		}
	}
}

func TestDirectPeeringWinsAndIsNear(t *testing.T) {
	g := buildWorld(t, 5)
	sites := deploySites(g, 5, 0.3)
	r, err := NewResolver(g, sites)
	if err != nil {
		t.Fatal(err)
	}
	// Force an explicit peering from one eyeball to a specific host.
	e := g.Eyeballs()[7]
	g.Peer(e, sites[3].Host)
	rt, ok := r.Route(e)
	if !ok {
		t.Fatal("no route")
	}
	if !rt.Direct || rt.PathLen != 2 {
		t.Fatalf("expected direct route, got %+v", rt)
	}
}

func TestLargerDeploymentsLessEfficientButLowerLatency(t *testing.T) {
	// The paper's central routing result (Fig 7a): as deployments grow,
	// the share of sources routed to their closest site drops, while the
	// distance to the chosen site also drops.
	g := buildWorld(t, 6)
	type outcome struct {
		n          int
		efficiency float64
		meanDist   float64
	}
	var results []outcome
	for _, n := range []int{2, 10, 40} {
		sites := deploySites(g, n, 0.25)
		r, err := NewResolver(g, sites)
		if err != nil {
			t.Fatal(err)
		}
		atClosest, total := 0, 0
		var sumDist float64
		for _, e := range g.Eyeballs() {
			rt, ok := r.Route(e)
			if !ok {
				continue
			}
			src := g.AS(e)
			// Closest site by great circle.
			closest, closestD := -1, 0.0
			for _, s := range sites {
				d := geo.DistanceKm(src.Loc, s.Loc)
				if closest == -1 || d < closestD {
					closest, closestD = s.ID, d
				}
			}
			chosenD := geo.DistanceKm(src.Loc, sites[rt.SiteID].Loc)
			if chosenD <= closestD+1 {
				atClosest++
			}
			sumDist += chosenD
			total++
		}
		results = append(results, outcome{n, float64(atClosest) / float64(total), sumDist / float64(total)})
	}
	if !(results[0].efficiency > results[2].efficiency) {
		t.Errorf("efficiency should fall with size: %+v", results)
	}
	if !(results[0].meanDist > results[2].meanDist) {
		t.Errorf("mean chosen-site distance should fall with size: %+v", results)
	}
}

func TestRicherPeeringShortensPaths(t *testing.T) {
	// Fig 6a's mechanism: a richly peered deployment sees far more 2-AS
	// paths than a poorly peered one.
	g := buildWorld(t, 7)
	frac2 := func(richness float64) float64 {
		sites := deploySites(g, 12, richness)
		r, err := NewResolver(g, sites)
		if err != nil {
			t.Fatal(err)
		}
		direct, total := 0, 0
		for _, e := range g.Eyeballs() {
			rt, ok := r.Route(e)
			if !ok {
				continue
			}
			if rt.PathLen == 2 {
				direct++
			}
			total++
		}
		return float64(direct) / float64(total)
	}
	poor := frac2(0.05)
	rich := frac2(0.9)
	if rich <= poor {
		t.Errorf("rich peering 2-AS share %.3f should exceed poor %.3f", rich, poor)
	}
	if rich < 0.25 {
		t.Errorf("rich peering 2-AS share too low: %.3f", rich)
	}
}

func TestLocalSiteVisibility(t *testing.T) {
	g := buildWorld(t, 8)
	// One global site far away and one local site: sources in the local
	// site's region should be able to use it, others must not.
	far := geo.Anchors()[0]
	host1 := g.AddHostAS("global-host", []geo.Coord{far.Coord}, []topology.ASN{g.Tier1s()[0]}, 0.1)

	// Place the local site exactly at some eyeball's region center.
	e0 := g.AS(g.Eyeballs()[0])
	localLoc := g.Regions[e0.Region].Center
	host2 := g.AddHostAS("local-host", []geo.Coord{localLoc}, []topology.ASN{g.Transits()[0]}, 0)

	sites := []Site{
		{ID: 0, Loc: far.Coord, Host: host1.ASN, Global: true},
		{ID: 1, Loc: localLoc, Host: host2.ASN, Global: false},
	}
	r, err := NewResolver(g, sites)
	if err != nil {
		t.Fatal(err)
	}
	rt, ok := r.Route(e0.ASN)
	if !ok {
		t.Fatal("no route for local eyeball")
	}
	// e0 sees both; most sources elsewhere see only the global site.
	usedLocal := 0
	for _, en := range g.Eyeballs() {
		src := g.AS(en)
		rt, ok := r.Route(en)
		if !ok {
			continue
		}
		if rt.SiteID == 1 {
			usedLocal++
			if src.Region != host2.Region && !g.Peered(en, host2.ASN) {
				t.Errorf("eyeball %d in region %d uses local site in region %d without peering",
					en, src.Region, host2.Region)
			}
		}
	}
	_ = rt
	if usedLocal == 0 {
		t.Error("no source used the local site; visibility too strict")
	}
}

func TestCatchments(t *testing.T) {
	g := buildWorld(t, 9)
	sites := deploySites(g, 8, 0.3)
	r, err := NewResolver(g, sites)
	if err != nil {
		t.Fatal(err)
	}
	m := r.catchments(g.Eyeballs())
	if len(m) != len(g.Eyeballs()) {
		t.Errorf("catchments for %d of %d eyeballs", len(m), len(g.Eyeballs()))
	}
	// Each site in use should be a valid ID.
	for asn, rt := range m {
		if rt.SiteID < 0 || rt.SiteID >= len(sites) {
			t.Errorf("AS%d routed to invalid site %d", asn, rt.SiteID)
		}
	}
	if got := len(r.sites); got != 8 {
		t.Errorf("Sites() = %d", got)
	}
}

func TestRouteDist(t *testing.T) {
	r := Route{Waypoints: []geo.Coord{{Lat: 0, Lon: 0}, {Lat: 0, Lon: 1}, {Lat: 0, Lon: 2}}}
	want := 2 * geo.DistanceKm(geo.Coord{Lat: 0, Lon: 0}, geo.Coord{Lat: 0, Lon: 1})
	if got := r.Dist(); got < want-0.01 || got > want+0.01 {
		t.Errorf("Dist = %v, want %v", got, want)
	}
}
