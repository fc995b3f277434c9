package bgp

import (
	"math/rand"
	"testing"

	"anycastctx/internal/geo"
	"anycastctx/internal/topology"
)

func benchWorld(b *testing.B, sites int) (*topology.Graph, *Resolver) {
	b.Helper()
	regions := geo.GenerateRegions(geo.PaperRegionCounts, rand.New(rand.NewSource(42)))
	g, err := topology.New(topology.Config{Seed: 1, NumTier1: 12, NumTransit: 80, NumEyeball: 1000}, regions)
	if err != nil {
		b.Fatal(err)
	}
	anchors := geo.Anchors()
	ss := make([]Site, sites)
	for i := range ss {
		a := anchors[i%len(anchors)]
		host := g.AddHostAS("h", []geo.Coord{a.Coord}, []topology.ASN{g.Transits()[i%len(g.Transits())], g.Tier1s()[i%len(g.Tier1s())]}, 0.3)
		ss[i] = Site{ID: i, Loc: a.Coord, Host: host.ASN, Global: true}
	}
	r, err := NewResolver(g, ss)
	if err != nil {
		b.Fatal(err)
	}
	return g, r
}

// BenchmarkRouteSmallDeployment measures per-source catchment resolution
// against a 5-site deployment.
func BenchmarkRouteSmallDeployment(b *testing.B) {
	g, r := benchWorld(b, 5)
	eyeballs := g.Eyeballs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := r.Route(eyeballs[i%len(eyeballs)]); !ok {
			b.Fatal("no route")
		}
	}
}

// BenchmarkRouteLargeDeployment measures resolution against a 138-site
// deployment (L-root scale).
func BenchmarkRouteLargeDeployment(b *testing.B) {
	g, r := benchWorld(b, 138)
	eyeballs := g.Eyeballs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := r.Route(eyeballs[i%len(eyeballs)]); !ok {
			b.Fatal("no route")
		}
	}
}

// BenchmarkNewResolver measures the per-deployment precomputation.
func BenchmarkNewResolver(b *testing.B) {
	g, r := benchWorld(b, 50)
	sites := r.sites
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewResolver(g, sites); err != nil {
			b.Fatal(err)
		}
	}
}
