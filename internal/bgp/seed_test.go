package bgp

import (
	"context"
	"testing"

	"anycastctx/internal/topology"
)

// TestSeedFromIdentity: seeding everything with nil remap/keep makes the
// new resolver answer every query from cache, identically to base.
func TestSeedFromIdentity(t *testing.T) {
	g := buildWorld(t, 3)
	sites := deploySites(g, 6, 0.3)
	base, err := NewResolver(g, sites)
	if err != nil {
		t.Fatal(err)
	}
	srcs := g.Eyeballs()
	base.WarmCtx(context.Background(), srcs)

	fresh, err := NewResolver(g, sites)
	if err != nil {
		t.Fatal(err)
	}
	seeded := fresh.SeedFrom(base, nil, nil)
	if seeded != len(srcs) {
		t.Fatalf("seeded %d entries, warmed %d", seeded, len(srcs))
	}
	for _, s := range srcs {
		brt, bok := base.Route(s)
		frt, fok := fresh.Route(s)
		if bok != fok || (bok && !brt.Equal(frt)) {
			t.Fatalf("AS%d: seeded route differs from base", s)
		}
	}
}

// TestSeedFromRemapAndKeep: the withdraw-site shape. Entries on the
// withdrawn site are dropped by keep, survivors are renumbered through
// remap, and the dropped sources re-resolve to the same decision a fresh
// resolver makes.
func TestSeedFromRemapAndKeep(t *testing.T) {
	g := buildWorld(t, 3)
	sites := deploySites(g, 6, 0.3)
	base, err := NewResolver(g, sites)
	if err != nil {
		t.Fatal(err)
	}
	srcs := g.Eyeballs()
	base.WarmCtx(context.Background(), srcs)

	// Withdraw site 2: survivors renumber down by one above it.
	withdrawn := 2
	newSites := make([]Site, 0, len(sites)-1)
	remap := make([]int, len(sites))
	for i, s := range sites {
		switch {
		case i == withdrawn:
			remap[i] = -1
		case i > withdrawn:
			s.ID = i - 1
			remap[i] = i - 1
			newSites = append(newSites, s)
		default:
			remap[i] = i
			newSites = append(newSites, s)
		}
	}
	mut, err := NewResolver(g, newSites)
	if err != nil {
		t.Fatal(err)
	}
	kept := 0
	base.ForEachCached(func(src topology.ASN, rt Route, ok bool) {
		if !ok || rt.SiteID != withdrawn {
			kept++
		}
	})
	seeded := mut.SeedFrom(base, remap, func(src topology.ASN, rt Route, ok bool) bool {
		return !ok || rt.SiteID != withdrawn
	})
	if seeded != kept {
		t.Fatalf("seeded %d, keep admits %d", seeded, kept)
	}

	oracle, err := NewResolver(g, newSites)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range srcs {
		mrt, mok := mut.Route(s)
		ort, ook := oracle.Route(s)
		if mok != ook || (mok && !mrt.Equal(ort)) {
			t.Fatalf("AS%d: seeded resolver disagrees with fresh resolver", s)
		}
	}
}

// TestSeedFromSkipsStaleSites: a keep that wrongly admits an entry on a
// withdrawn site must not corrupt the cache — SeedFrom skips it and the
// source re-resolves.
func TestSeedFromSkipsStaleSites(t *testing.T) {
	g := buildWorld(t, 3)
	sites := deploySites(g, 4, 0.3)
	base, err := NewResolver(g, sites)
	if err != nil {
		t.Fatal(err)
	}
	srcs := g.Eyeballs()
	base.WarmCtx(context.Background(), srcs)

	last := len(sites) - 1
	newSites := sites[:last]
	remap := make([]int, len(sites))
	for i := range remap {
		remap[i] = i
	}
	remap[last] = -1
	mut, err := NewResolver(g, newSites)
	if err != nil {
		t.Fatal(err)
	}
	mut.SeedFrom(base, remap, nil) // keep everything, including stale entries
	oracle, err := NewResolver(g, newSites)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range srcs {
		mrt, mok := mut.Route(s)
		ort, ook := oracle.Route(s)
		if mok != ook || (mok && !mrt.Equal(ort)) {
			t.Fatalf("AS%d: stale seed leaked into resolver", s)
		}
		if mok && mrt.SiteID >= len(newSites) {
			t.Fatalf("AS%d: route points past the site set", s)
		}
	}
}
