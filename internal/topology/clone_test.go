package topology

import (
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
