package bgp

import (
	"math/rand"
	"testing"

	"anycastctx/internal/geo"
	"anycastctx/internal/topology"
)

// benchGraph builds the benchmark topology: 12 tier-1s, 80 transits and
// 1,000 eyeballs.
func benchGraph(b *testing.B) *topology.Graph {
	b.Helper()
	regions := geo.GenerateRegions(geo.PaperRegionCounts, rand.New(rand.NewSource(42)))
	g, err := topology.New(topology.Config{Seed: 1, NumTier1: 12, NumTransit: 80, NumEyeball: 1000}, regions)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// benchLetter adds n single-site hosts at the anchor metros, the shape
// of a root letter without a partner host.
func benchLetter(g *topology.Graph, n int) []Site {
	anchors := geo.Anchors()
	ss := make([]Site, n)
	for i := range ss {
		a := anchors[i%len(anchors)]
		host := g.AddHostAS("h", []geo.Coord{a.Coord}, []topology.ASN{g.Transits()[i%len(g.Transits())], g.Tier1s()[i%len(g.Tier1s())]}, 0.3)
		ss[i] = Site{ID: i, Loc: a.Coord, Host: host.ASN, Global: true}
	}
	return ss
}

// benchColdRoutes times cold route resolutions from every eyeball: each
// pass over the eyeballs runs on a fresh resolver whose construction and
// transit tables are built with the timer stopped, so every timed call
// is a cache miss.
func benchColdRoutes(b *testing.B, g *topology.Graph, sites []Site) {
	eyeballs := g.Eyeballs()
	var r *Resolver
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(eyeballs)
		if k == 0 {
			b.StopTimer()
			var err error
			if r, err = NewResolver(g, sites); err != nil {
				b.Fatal(err)
			}
			r.tables()
			b.StartTimer()
		}
		if _, ok := r.Route(eyeballs[k]); !ok {
			b.Fatal("no route")
		}
	}
}

// BenchmarkRouteSmallDeployment measures one cold route resolution
// against a 5-site deployment.
func BenchmarkRouteSmallDeployment(b *testing.B) {
	g := benchGraph(b)
	benchColdRoutes(b, g, benchLetter(g, 5))
}

// BenchmarkRouteLargeDeployment measures one cold route resolution
// against a 138-site deployment (L-root scale).
func BenchmarkRouteLargeDeployment(b *testing.B) {
	g := benchGraph(b)
	benchColdRoutes(b, g, benchLetter(g, 138))
}

// BenchmarkRouteSingleHost measures one cold route resolution against
// the CDN's shape: one AS with 110 presence points carrying 110 sites,
// explicitly peered with about half the eyeballs.
func BenchmarkRouteSingleHost(b *testing.B) {
	g := benchGraph(b)
	rng := rand.New(rand.NewSource(7))
	pops := make([]geo.Coord, 110)
	for i := range pops {
		pops[i] = geo.Jitter(g.Regions[i%len(g.Regions)].Center, 30, rng.Float64(), rng.Float64())
	}
	cdn := g.AddCDNAS("cdn", pops)
	for _, e := range g.Eyeballs() {
		if rng.Float64() < 0.5 {
			g.Peer(e, cdn.ASN)
		}
	}
	sites := make([]Site, len(pops))
	for i, p := range pops {
		sites[i] = Site{ID: i, Loc: p, Host: cdn.ASN, Global: true}
	}
	benchColdRoutes(b, g, sites)
}

// BenchmarkNewResolver measures the per-deployment precomputation: the
// resolver and the transit tables its first route resolution builds.
func BenchmarkNewResolver(b *testing.B) {
	g := benchGraph(b)
	sites := benchLetter(g, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := NewResolver(g, sites)
		if err != nil {
			b.Fatal(err)
		}
		r.tables()
	}
}
