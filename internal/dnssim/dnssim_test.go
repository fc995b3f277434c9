package dnssim

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

func testZone(t *testing.T) *Zone {
	t.Helper()
	return NewZone(1000, 1)
}

func TestZoneBasics(t *testing.T) {
	z := testZone(t)
	if z.Len() != 1000 {
		t.Fatalf("Len = %d", z.Len())
	}
	com, ok := z.Lookup("com")
	if !ok {
		t.Fatal("com missing")
	}
	if com.Popularity <= 0 {
		t.Error("com has no popularity")
	}
	if len(com.NSNames) < 2 || com.GluedA < 1 || com.GluedA > len(com.NSNames) {
		t.Errorf("com delegation = %+v", com)
	}
	if _, ok := z.Lookup("no-such-tld-xyzzy"); ok {
		t.Error("bogus TLD found")
	}
	var sum float64
	for _, tld := range z.TLDs {
		sum += tld.Popularity
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("popularity sums to %v", sum)
	}
	// com should be the most popular TLD.
	for _, tld := range z.TLDs {
		if tld.Name != "com" && tld.Popularity > com.Popularity {
			t.Errorf("%s more popular than com", tld.Name)
		}
	}
}

func TestZoneSampleMatchesPopularity(t *testing.T) {
	z := testZone(t)
	rng := rand.New(rand.NewSource(2))
	counts := make([]int, z.Len())
	const n = 200000
	for i := 0; i < n; i++ {
		counts[z.SampleTLD(rng)]++
	}
	// com's empirical share should be near its popularity.
	got := float64(counts[0]) / n
	want := z.TLDs[0].Popularity
	if math.Abs(got-want) > 0.02 {
		t.Errorf("com sampled share %.3f, want %.3f", got, want)
	}
}

func TestActiveTLDs(t *testing.T) {
	z := testZone(t)
	if got := z.ActiveTLDs(0); got != 0 {
		t.Errorf("ActiveTLDs(0) = %v", got)
	}
	small := z.ActiveTLDs(10)
	big := z.ActiveTLDs(1e7)
	if small <= 0 || small >= big {
		t.Errorf("ActiveTLDs not increasing: %v vs %v", small, big)
	}
	if big > float64(z.Len()) {
		t.Errorf("ActiveTLDs %v exceeds zone size", big)
	}
	if big < float64(z.Len())*0.9 {
		t.Errorf("huge volume should touch nearly all TLDs: %v", big)
	}
}

func flatUpstreams(timeoutProb float64) Upstreams {
	return Upstreams{
		RootRTT:         func(letter int) float64 { return 30 + float64(letter) },
		TLDRTT:          func() float64 { return 10 },
		AuthRTT:         func(Name) float64 { return 20 },
		AuthTimeoutProb: timeoutProb,
	}
}

func newTestResolver(t *testing.T, bug bool, timeoutProb float64) *Resolver {
	t.Helper()
	z := testZone(t)
	r, err := NewResolver(z, ResolverConfig{NumLetters: 13, Bug: bug}, flatUpstreams(timeoutProb), rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewResolverValidation(t *testing.T) {
	z := testZone(t)
	if _, err := NewResolver(nil, ResolverConfig{}, flatUpstreams(0), rand.New(rand.NewSource(1))); err == nil {
		t.Error("nil zone accepted")
	}
	if _, err := NewResolver(z, ResolverConfig{}, Upstreams{}, rand.New(rand.NewSource(1))); err == nil {
		t.Error("empty upstreams accepted")
	}
}

func TestResolveCaching(t *testing.T) {
	r := newTestResolver(t, false, 0)
	first := r.ResolveA("site1.com")
	if first.CacheHit {
		t.Error("first lookup was a cache hit")
	}
	if first.RootQueriesOnPath != 1 {
		t.Errorf("first lookup root queries = %d", first.RootQueriesOnPath)
	}
	if first.RootLatencyMs <= 0 || first.LatencyMs <= first.RootLatencyMs {
		t.Errorf("latency = %v, root = %v", first.LatencyMs, first.RootLatencyMs)
	}

	// Same domain: full cache hit, sub-millisecond.
	second := r.ResolveA("site1.com")
	if !second.CacheHit || second.LatencyMs >= 1 {
		t.Errorf("second = %+v", second)
	}

	// Different domain, same TLD: no root query (NS cached).
	third := r.ResolveA("site2.com")
	if third.CacheHit {
		t.Error("third was full cache hit")
	}
	if third.RootQueriesOnPath != 0 || third.RootLatencyMs != 0 {
		t.Errorf("third root queries = %d", third.RootQueriesOnPath)
	}

	// After TTL expiry the root is queried again.
	r.AdvanceTo(r.Now() + TLDTTLSeconds + 1)
	fourth := r.ResolveA("site3.com")
	if fourth.RootQueriesOnPath != 1 {
		t.Errorf("post-expiry root queries = %d", fourth.RootQueriesOnPath)
	}
}

func TestResolveInvalidTLD(t *testing.T) {
	r := newTestResolver(t, false, 0)
	res := r.ResolveA("qkzptwv")
	if !res.NXDomain || res.RootQueriesOnPath != 1 {
		t.Errorf("probe result = %+v", res)
	}
	c := r.Counters()
	if c.RootQueriesInvalid != 1 || c.RootQueriesValid != 0 {
		t.Errorf("counters = %+v", c)
	}
	// Negative cache.
	res2 := r.ResolveA("qkzptwv")
	if !res2.CacheHit || !res2.NXDomain {
		t.Errorf("negative cache miss: %+v", res2)
	}
}

func TestBugGeneratesRedundantQueries(t *testing.T) {
	r := newTestResolver(t, true, 0)
	res := r.ResolveAForceTimeout("bidder.criteo.com")
	if res.RedundantRootQueries == 0 {
		t.Fatal("no redundant queries with bug enabled")
	}
	c := r.Counters()
	if c.RootQueriesRedundant == 0 || c.RootQueriesRedundant > c.RootQueriesValid {
		t.Errorf("counters = %+v", c)
	}

	// Without the bug, a timeout produces no redundant queries.
	r2 := newTestResolver(t, false, 0)
	res2 := r2.ResolveAForceTimeout("bidder.criteo.com")
	if res2.RedundantRootQueries != 0 {
		t.Errorf("bugless resolver produced %d redundant queries", res2.RedundantRootQueries)
	}
	// Timeouts still cost the user latency.
	if res2.LatencyMs < 800 {
		t.Errorf("timeout latency = %v", res2.LatencyMs)
	}
}

func TestTable5StyleTrace(t *testing.T) {
	r := newTestResolver(t, true, 0)
	r.StartTrace()
	r.ResolveAForceTimeout("bidder.criteo.com")
	steps := r.StopTrace()
	if len(steps) < 6 {
		t.Fatalf("trace too short: %d steps", len(steps))
	}
	// Expect: client query, root referral, TLD referral, timeout, retry,
	// then redundant root queries for NS names.
	var sawTimeout, sawRedundant bool
	for _, s := range steps {
		if s.Note == "timeout" {
			sawTimeout = true
		}
		if s.Note == "redundant" {
			if !sawTimeout {
				t.Error("redundant query before timeout")
			}
			sawRedundant = true
			if s.QType != "A" && s.QType != "AAAA" {
				t.Errorf("redundant qtype = %s", s.QType)
			}
		}
	}
	if !sawRedundant {
		t.Error("no redundant steps in trace")
	}
	// Trace stops recording after StopTrace.
	r.ResolveA("site9.com")
	if got := r.StopTrace(); len(got) != 0 {
		t.Errorf("trace after stop = %d steps", len(got))
	}
}

func TestSLDDelegationDeterministic(t *testing.T) {
	r := newTestResolver(t, false, 0)
	ns1, g1 := sldDelegation(r.parseName("bidder.criteo.com"))
	ns2, g2 := sldDelegation(r.parseName("bidder.criteo.com."))
	if ns1 != ns2 || g1 != g2 {
		t.Fatal("delegation not deterministic")
	}
	if ns1 < 2 || ns1 > 6 {
		t.Errorf("NS count = %d", ns1)
	}
	if g1 < 1 || g1 > ns1 {
		t.Errorf("glued = %d of %d", g1, ns1)
	}
}

func TestLetterPreferenceConvergesToFastest(t *testing.T) {
	z := testZone(t)
	rng := rand.New(rand.NewSource(4))
	// Letter 2 is far faster than the rest.
	ups := Upstreams{
		RootRTT: func(letter int) float64 {
			if letter == 2 {
				return 5
			}
			return 150
		},
		TLDRTT:  func() float64 { return 10 },
		AuthRTT: func(Name) float64 { return 20 },
	}
	r, err := NewResolver(z, ResolverConfig{NumLetters: 13}, ups, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Many lookups across expiring TLDs to force root queries.
	for i := 0; i < 4000; i++ {
		r.AdvanceTo(r.Now() + 500)
		r.ResolveA(z.TLDs[i%z.Len()].Name)
	}
	c := r.Counters()
	total := c.RootQueries()
	if total == 0 {
		t.Fatal("no root queries")
	}
	share2 := float64(c.RootQueriesPerLetter[2]) / float64(total)
	if share2 < 0.6 {
		t.Errorf("fast letter got only %.2f of queries", share2)
	}
}

func TestMissRateSmallWithCaching(t *testing.T) {
	// The headline §4.3 result: with shared caches, root queries are a
	// tiny fraction of user queries (ISI median 0.5%, range 0.1–2.5%).
	z := testZone(t)
	rng := rand.New(rand.NewSource(5))
	r, err := NewResolver(z, ResolverConfig{NumLetters: 13, Bug: true},
		StandardUpstreams([]float64{30, 40, 50, 60, 25, 35, 45, 55, 65, 70, 20, 80, 90}, rng), rng)
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(z, ClientConfig{Users: 120, QueriesPerUserPerDay: 250}, 5)
	// Warm-up day, then measure.
	client.RunCtx(context.Background(), r, 1, nil)
	warm := r.Counters()
	client.RunCtx(context.Background(), r, 2, nil)
	c := r.Counters()
	userQ := c.UserQueries - warm.UserQueries
	rootQ := c.RootQueries() - warm.RootQueries()
	miss := float64(rootQ) / float64(userQ)
	if miss > 0.05 {
		t.Errorf("root miss rate %.4f too high; caching broken?", miss)
	}
	if miss <= 0 {
		t.Error("no root queries at all")
	}
	// Redundant (bug) queries should be a large share of valid root
	// queries (ISI: 79.8%).
	red := float64(c.RootQueriesRedundant) / float64(c.RootQueriesValid)
	if red < 0.2 || red > 0.98 {
		t.Errorf("redundant share = %.2f", red)
	}
}

func TestClientRunStats(t *testing.T) {
	z := testZone(t)
	rng := rand.New(rand.NewSource(6))
	r, err := NewResolver(z, ResolverConfig{NumLetters: 3}, flatUpstreams(0.002), rng)
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(z, ClientConfig{Users: 50, QueriesPerUserPerDay: 100}, 6)
	var cbCount uint64
	stats := client.RunCtx(context.Background(), r, 0.5, func(kind QueryKind, res QueryResult) { cbCount++ })
	if stats.Queries == 0 {
		t.Fatal("no queries generated")
	}
	if cbCount != stats.Queries {
		t.Errorf("callback count %d != queries %d", cbCount, stats.Queries)
	}
	if stats.ValidQueries+stats.ProbeQueries+stats.JunkQueries != stats.Queries {
		t.Error("kind counts do not sum")
	}
	// Expected volume: 50 users * (100+1.5+0.8)/day * 0.5 day = ~2558.
	want := 50.0 * 102.3 * 0.5
	if float64(stats.Queries) < want*0.8 || float64(stats.Queries) > want*1.2 {
		t.Errorf("queries = %d, want ~%.0f", stats.Queries, want)
	}
	if stats.TotalLatencyMs < stats.RootLatencyMs {
		t.Error("root latency exceeds total")
	}
}

func TestClientSamplers(t *testing.T) {
	z := testZone(t)
	c := NewClient(z, ClientConfig{}, 7)
	r := newTestResolver(t, false, 0)
	for i := 0; i < 100; i++ {
		d := c.sampleDomain()
		if _, ok := z.Lookup(lastLabel(d.String())); !ok {
			t.Fatalf("sampled domain %q has invalid TLD", d)
		}
		if got := r.parseName(d.String()); got != d {
			t.Fatalf("%q parses to %+v, want %+v", d, got, d)
		}
		p := c.sampleChromiumProbe()
		if _, ok := z.Lookup(p); ok {
			t.Fatalf("probe %q is a valid TLD", p)
		}
		if len(p) < 7 || len(p) > 15 {
			t.Errorf("probe length %d", len(p))
		}
		j := c.sampleJunk()
		if _, ok := z.Lookup(lastLabel(j.String())); ok {
			t.Fatalf("junk %q has valid TLD", j)
		}
		if got := r.parseName(j.String()); got != j {
			t.Fatalf("%q parses to %+v, want %+v", j, got, j)
		}
	}
}

func TestQueryKindString(t *testing.T) {
	if QueryValid.String() != "valid" || QueryProbe.String() != "probe" || QueryJunk.String() != "junk" {
		t.Error("kind names wrong")
	}
	if QueryKind(9).String() != "QueryKind(9)" {
		t.Error("unknown kind string wrong")
	}
}

func TestCountersHelpers(t *testing.T) {
	c := Counters{UserQueries: 200, RootQueriesValid: 1, RootQueriesInvalid: 1}
	if c.RootQueries() != 2 {
		t.Error("RootQueries wrong")
	}
	if c.RootMissRate() != 0.01 {
		t.Errorf("miss rate = %v", c.RootMissRate())
	}
	var zero Counters
	if zero.RootMissRate() != 0 {
		t.Error("zero miss rate wrong")
	}
}

// TestWarmClientDayAllocs guards the typed query path: once the cache and
// the intern table are warm, a simulated day allocates almost nothing per
// user query. Spelled names, string cache keys or trace notes built with
// no trace recording would each cost at least one allocation a query.
func TestWarmClientDayAllocs(t *testing.T) {
	z := testZone(t)
	rng := rand.New(rand.NewSource(8))
	r, err := NewResolver(z, ResolverConfig{NumLetters: 13, Bug: true},
		StandardUpstreams([]float64{30, 40, 50, 25, 35, 45, 55, 65, 70, 20, 80, 90, 60}, rng), rng)
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(z, ClientConfig{Users: 30}, 8)
	ctx := context.Background()
	client.RunCtx(ctx, r, 1, nil)
	before := r.Counters().UserQueries
	// AllocsPerRun makes one warm-up call before the days-1 it averages,
	// so the counted queries span all days.
	const days = 3
	allocs := testing.AllocsPerRun(days-1, func() { client.RunCtx(ctx, r, 1, nil) })
	perQuery := allocs * days / float64(r.Counters().UserQueries-before)
	t.Logf("%.0f allocs per warm day, %.4f per user query", allocs, perQuery)
	if perQuery > 0.05 {
		t.Errorf("warm client day allocates %.4f times per user query, want near zero", perQuery)
	}
}
