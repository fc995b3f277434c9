package topology

import (
	"slices"
	"sync"
	"testing"

	"anycastctx/internal/geo"
)

// TestCloneIsolation: mutating a clone (new ASes, explicit peering,
// presence slices) must leave the base graph untouched, and vice versa
// — the property the scenario engine's overlay worlds rest on.
func TestCloneIsolation(t *testing.T) {
	g, err := New(smallConfig(), testRegions(t))
	if err != nil {
		t.Fatal(err)
	}
	baseN := g.Len()
	c := g.Clone()

	// Add a host AS and a peering edge on the clone only.
	loc := geo.Coord{Lat: 48.86, Lon: 2.35}
	h := c.AddHostAS("clone-host", []geo.Coord{loc}, []ASN{c.Transits()[0]}, 0.4)
	e := c.Eyeballs()[0]
	c.Peer(e, h.ASN)

	if g.AS(h.ASN) != nil {
		t.Errorf("clone's host AS%d visible in base", h.ASN)
	}
	if g.Len() != baseN {
		t.Errorf("base AS count changed: %d -> %d", baseN, g.Len())
	}
	if g.Peered(e, h.ASN) {
		t.Errorf("clone's peering edge visible in base")
	}
	// An edge between two ASes both graphs hold lands in the clone's
	// adjacency lists only.
	e2 := c.Eyeballs()[2]
	c.Peer(e, e2)
	if g.HasExplicitPeering(e, e2) || !c.HasExplicitPeering(e, e2) {
		t.Errorf("edge AS%d-AS%d: base %v, clone %v; want false, true", e, e2,
			g.HasExplicitPeering(e, e2), c.HasExplicitPeering(e, e2))
	}
	if c.AS(h.ASN) == nil || !c.Peered(e, h.ASN) {
		t.Errorf("clone lost its own mutation")
	}

	// Mutate the base; the clone must not see it either.
	h2 := g.AddHostAS("base-host", []geo.Coord{loc}, []ASN{g.Transits()[0]}, 0.4)
	if c.AS(h2.ASN) != nil && c.AS(h2.ASN).Name == "base-host" {
		t.Errorf("base's host AS visible in clone")
	}
	// A tier-1's mesh edges leave spare capacity in its adjacency list,
	// which the two graphs share: a new edge on each side must stay there.
	t1, eb, ec := g.Tier1s()[0], g.Eyeballs()[3], g.Eyeballs()[4]
	g.Peer(t1, eb)
	c.Peer(t1, ec)
	last := func(g *Graph) ASN { p := g.AS(t1).peers; return p[len(p)-1] }
	if last(g) != eb || last(c) != ec {
		t.Errorf("tier-1's newest edge: base AS%d, clone AS%d; want AS%d, AS%d", last(g), last(c), eb, ec)
	}

	// Growing an AS's presence on the clone must not clobber the base AS.
	any := g.Eyeballs()[1]
	basePresence := len(g.AS(any).Presence)
	c.AS(any).Presence = append(c.AS(any).Presence, loc)
	if got := len(g.AS(any).Presence); got != basePresence {
		t.Errorf("base presence grew with clone: %d -> %d", basePresence, got)
	}
}

// TestCloneDeterministicASNs: the clone carries generation state, so the
// same mutation applied to base and clone mints the same ASN.
func TestCloneDeterministicASNs(t *testing.T) {
	g, err := New(smallConfig(), testRegions(t))
	if err != nil {
		t.Fatal(err)
	}
	c := g.Clone()
	loc := geo.Coord{Lat: 1, Lon: 1}
	hb := g.AddHostAS("h", []geo.Coord{loc}, []ASN{g.Transits()[0]}, 0.1)
	hc := c.AddHostAS("h", []geo.Coord{loc}, []ASN{c.Transits()[0]}, 0.1)
	if hb.ASN != hc.ASN {
		t.Errorf("same mutation minted ASN %d on base, %d on clone", hb.ASN, hc.ASN)
	}
	if hb.Region != hc.Region {
		t.Errorf("region inference diverged: %d vs %d", hb.Region, hc.Region)
	}
}

// TestCloneRanksAsOriginal: a clone shares the transit index and the
// region order, so after host and CDN ASes join the clone, and a host
// joins the original, both still rank transits and order regions alike,
// also when goroutines rank on both at once.
func TestCloneRanksAsOriginal(t *testing.T) {
	regions := testRegions(t)
	g, err := New(smallConfig(), regions)
	if err != nil {
		t.Fatal(err)
	}
	c := g.Clone()
	for i, r := range g.HeaviestRegions()[:20] {
		c.AddHostAS("clone-host", []geo.Coord{r.Center}, c.NearestTransits(geo.Prepare(r.Center), 2), 0.3)
		if i == 10 {
			c.AddCDNAS("clone-cdn", []geo.Coord{r.Center, regions[0].Center})
		}
	}
	g.AddHostAS("base-host", []geo.Coord{regions[1].Center, regions[2].Center}, g.Transits()[:2], 0.3)
	if !slices.Equal(c.HeaviestRegions(), g.HeaviestRegions()) {
		t.Errorf("clone's region order differs from the original's")
	}
	got, want := c.transitsNear(regions), g.transitsNear(regions)
	picks := make([][]ASN, len(regions))
	for ri, r := range regions {
		picks[ri] = g.NearestTransits(geo.Prepare(r.Center), 3)
		if !slices.Equal(got[ri], want[ri]) {
			t.Fatalf("region %d: clone ranks %v, original %v", ri, got[ri], want[ri])
		}
		q := geo.Prepare(geo.Jitter(r.Center, 300, 0.25, 0.5))
		if a, b := c.NearestTransits(q, 3), g.NearestTransits(q, 3); !slices.Equal(a, b) {
			t.Fatalf("near region %d: clone picks %v, original %v", ri, a, b)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		graph := []*Graph{g, c}[w%2]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ri, r := range regions {
				if got := graph.NearestTransits(geo.Prepare(r.Center), 3); !slices.Equal(got, picks[ri]) {
					t.Errorf("concurrent worker %d, region %d: picks %v, serially %v", w, ri, got, picks[ri])
					return
				}
			}
		}()
	}
	wg.Wait()
}
