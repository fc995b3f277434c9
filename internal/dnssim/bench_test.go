package dnssim

import (
	"context"
	"math/rand"
	"testing"

	"anycastctx/internal/geo"
	"anycastctx/internal/topology"
	"anycastctx/internal/users"
)

// BenchmarkResolveA measures event-level resolution throughput against a
// warm cache (the dominant operation of the local-perspective studies), on
// the typed names the client hands the resolver.
func BenchmarkResolveA(b *testing.B) {
	b.ReportAllocs()
	z := NewZone(1000, 1)
	rng := rand.New(rand.NewSource(2))
	r, err := NewResolver(z, ResolverConfig{NumLetters: 13, Bug: true},
		StandardUpstreams([]float64{30, 40, 50, 25, 35, 45, 55, 65, 70, 20, 80, 90, 60}, rng), rng)
	if err != nil {
		b.Fatal(err)
	}
	client := NewClient(z, ClientConfig{}, 2)
	names := make([]Name, 4096)
	for i := range names {
		names[i] = client.sampleDomain()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.AdvanceTo(r.Now() + 0.05)
		r.resolve(names[i%len(names)], false)
	}
}

// BenchmarkClientDay measures a full simulated day for a small population.
func BenchmarkClientDay(b *testing.B) {
	b.ReportAllocs()
	z := NewZone(1000, 3)
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i + 1)))
		r, err := NewResolver(z, ResolverConfig{NumLetters: 13, Bug: true},
			StandardUpstreams([]float64{30, 40, 50, 25, 35, 45, 55, 65, 70, 20, 80, 90, 60}, rng), rng)
		if err != nil {
			b.Fatal(err)
		}
		client := NewClient(z, ClientConfig{Users: 30}, int64(i+1))
		client.RunCtx(context.Background(), r, 1, nil)
	}
}

// BenchmarkComputeRates measures the analytic rate model at population
// scale.
func BenchmarkComputeRates(b *testing.B) {
	regions := geo.GenerateRegions(geo.PaperRegionCounts, rand.New(rand.NewSource(42)))
	g, err := topology.New(topology.Config{Seed: 11, NumTier1: 6, NumTransit: 40, NumEyeball: 1000}, regions)
	if err != nil {
		b.Fatal(err)
	}
	pop, err := users.Build(g, users.AddPublicDNS(g), 1e9, 5)
	if err != nil {
		b.Fatal(err)
	}
	z := NewZone(1000, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeRates(pop, z, int64(i))
	}
}
