package dnssim

import (
	"context"
	"math/rand"
	"testing"
)

func TestLocalRootNoUserVisibleRootQueries(t *testing.T) {
	z := testZone(t)
	rng := rand.New(rand.NewSource(41))
	r, err := NewResolver(z, ResolverConfig{NumLetters: 13, LocalRoot: true},
		flatUpstreams(0), rng)
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(z, ClientConfig{Users: 50, QueriesPerUserPerDay: 200}, 41)
	client.RunCtx(context.Background(), r, 1, func(_ QueryKind, res QueryResult) {
		if res.RootQueriesOnPath != 0 {
			t.Fatal("user query waited on a root under RFC 8806")
		}
		if res.RootLatencyMs != 0 {
			t.Fatal("root latency charged under RFC 8806")
		}
	})
	c := r.Counters()
	if c.RootQueries() != 0 {
		t.Errorf("root queries = %d, want 0", c.RootQueries())
	}
	if c.ZoneRefreshes == 0 {
		t.Error("no zone refreshes recorded")
	}
}

func TestLocalRootRefreshesOncePerTTL(t *testing.T) {
	z := testZone(t)
	rng := rand.New(rand.NewSource(43))
	r, err := NewResolver(z, ResolverConfig{NumLetters: 3, LocalRoot: true}, flatUpstreams(0), rng)
	if err != nil {
		t.Fatal(err)
	}
	// Queries spread over 4 TTLs should refresh ~4-5 times, not per query.
	for day := 0.0; day < 8; day += 0.25 {
		r.AdvanceTo(day * 86400)
		r.ResolveA("site1.com")
		r.ResolveA("other2.net")
	}
	c := r.Counters()
	if c.ZoneRefreshes < 3 || c.ZoneRefreshes > 6 {
		t.Errorf("zone refreshes = %d over 4 TTLs", c.ZoneRefreshes)
	}
}

func TestLocalRootAnswersInvalidTLDLocally(t *testing.T) {
	z := testZone(t)
	rng := rand.New(rand.NewSource(44))
	r, err := NewResolver(z, ResolverConfig{NumLetters: 3, LocalRoot: true}, flatUpstreams(0), rng)
	if err != nil {
		t.Fatal(err)
	}
	res := r.ResolveA("zzzznotatld")
	if !res.NXDomain {
		t.Error("invalid TLD not NXDOMAIN")
	}
	if res.RootQueriesOnPath != 0 || res.LatencyMs > 1 {
		t.Errorf("invalid TLD answered remotely: %+v", res)
	}
	if r.Counters().RootQueriesInvalid != 0 {
		t.Error("invalid query reached the roots")
	}
}

func TestTCPFallbackCountsAndCosts(t *testing.T) {
	z := testZone(t)
	rng := rand.New(rand.NewSource(45))
	// Force every root response truncated: every root query retries over
	// TCP and costs three RTTs total.
	r, err := NewResolver(z, ResolverConfig{NumLetters: 1, TruncationProb: 0.999999},
		Upstreams{
			RootRTT: func(int) float64 { return 40 },
			TLDRTT:  func() float64 { return 5 },
			AuthRTT: func(Name) float64 { return 5 },
		}, rng)
	if err != nil {
		t.Fatal(err)
	}
	res := r.ResolveA("site1.com")
	if res.RootLatencyMs < 119 {
		t.Errorf("TCP fallback root latency = %v, want ~120", res.RootLatencyMs)
	}
	c := r.Counters()
	if c.RootQueriesTCP != c.RootQueries() || c.RootQueriesTCP == 0 {
		t.Errorf("TCP counts = %d of %d", c.RootQueriesTCP, c.RootQueries())
	}
}

func TestTCPFallbackRareByDefault(t *testing.T) {
	z := testZone(t)
	rng := rand.New(rand.NewSource(46))
	r, err := NewResolver(z, ResolverConfig{NumLetters: 3}, flatUpstreams(0), rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		r.AdvanceTo(r.Now() + 400)
		r.ResolveA(z.TLDs[i%z.Len()].Name)
	}
	c := r.Counters()
	if c.RootQueries() == 0 {
		t.Fatal("no root queries")
	}
	share := float64(c.RootQueriesTCP) / float64(c.RootQueries())
	if share > 0.1 {
		t.Errorf("TCP share %.3f too high for default truncation", share)
	}
}
