package dnssim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// This file keeps the string-keyed resolver and client loop that the
// typed ones replaced, as the oracle they are checked against. The
// reference spells every name, keys its cache on "A:"+name-style strings
// and formats every trace note; the typed path must match it query for
// query, including each RNG draw.

type refUpstreams struct {
	RootRTT         func(letter int) float64
	TLDRTT          func() float64
	AuthRTT         func(domain string) float64
	AuthTimeoutProb float64
}

type refResolver struct {
	zone *Zone
	cfg  ResolverConfig
	ups  refUpstreams
	rng  *rand.Rand

	now   float64
	cache map[string]float64
	srtt  []float64

	counters Counters
	trace    []TraceStep
	tracing  bool

	localRootExpiry float64

	// timeouts counts authoritative timeouts, to show the bug branch ran.
	timeouts int
}

func newRefResolver(zone *Zone, cfg ResolverConfig, ups refUpstreams, rng *rand.Rand) *refResolver {
	cfg = cfg.withDefaults()
	srtt := make([]float64, cfg.NumLetters)
	for i := range srtt {
		srtt[i] = math.Inf(1)
	}
	return &refResolver{
		zone:     zone,
		cfg:      cfg,
		ups:      ups,
		rng:      rng,
		cache:    make(map[string]float64),
		srtt:     srtt,
		counters: Counters{RootQueriesPerLetter: make([]uint64, cfg.NumLetters)},
	}
}

func (r *refResolver) AdvanceTo(t float64) {
	if t > r.now {
		r.now = t
	}
}

func (r *refResolver) StartTrace() { r.tracing = true; r.trace = nil }

func (r *refResolver) StopTrace() []TraceStep {
	r.tracing = false
	out := r.trace
	r.trace = nil
	return out
}

func (r *refResolver) addTrace(rel float64, from, to, qname, qtype, note string) {
	if r.tracing {
		r.trace = append(r.trace, TraceStep{rel, from, to, qname, qtype, note})
	}
}

func (r *refResolver) cached(key string) bool {
	exp, ok := r.cache[key]
	if !ok {
		return false
	}
	if exp <= r.now {
		delete(r.cache, key)
		return false
	}
	return true
}

func (r *refResolver) put(key string, ttl float64) { r.cache[key] = r.now + ttl }

func (r *refResolver) pickLetter() int {
	unknown := make([]int, 0, len(r.srtt))
	for i, v := range r.srtt {
		if math.IsInf(v, 1) {
			unknown = append(unknown, i)
		}
	}
	if len(unknown) > 0 {
		return unknown[r.rng.Intn(len(unknown))]
	}
	if r.rng.Float64() < exploreProb {
		return r.rng.Intn(len(r.srtt))
	}
	best := 0
	for i, v := range r.srtt {
		if v < r.srtt[best] {
			best = i
		}
	}
	return best
}

func (r *refResolver) queryRoot(valid, redundant bool) (latencyMs float64, letter int) {
	letter = r.pickLetter()
	lat := r.ups.RootRTT(letter)
	if r.rng.Float64() < r.cfg.TruncationProb {
		lat += 2 * r.ups.RootRTT(letter)
		r.counters.RootQueriesTCP++
	}
	if math.IsInf(r.srtt[letter], 1) {
		r.srtt[letter] = lat
	} else {
		a := srttAlpha
		r.srtt[letter] = (1-a)*r.srtt[letter] + a*lat
	}
	if valid {
		r.counters.RootQueriesValid++
	} else {
		r.counters.RootQueriesInvalid++
	}
	if redundant {
		r.counters.RootQueriesRedundant++
	}
	r.counters.RootQueriesPerLetter[letter]++
	return lat, letter
}

func (r *refResolver) localRootCurrent() bool {
	if !r.cfg.LocalRoot {
		return false
	}
	if r.now >= r.localRootExpiry {
		r.counters.ZoneRefreshes++
		r.localRootExpiry = r.now + TLDTTLSeconds
	}
	return true
}

func refSLDDelegation(domain string) (ns []string, glued int) {
	h := uint32(2166136261)
	for i := 0; i < len(domain); i++ {
		h = (h ^ uint32(domain[i])) * 16777619
	}
	n := 2 + int(h%5)
	glued = 1 + int(h>>8)%2
	if glued > n {
		glued = n
	}
	ns = make([]string, n)
	for i := range ns {
		ns[i] = fmt.Sprintf("ns%d.%s", 20+i, domain)
	}
	return ns, glued
}

func (r *refResolver) ResolveA(domain string) QueryResult { return r.resolve(domain, false) }

func (r *refResolver) ResolveAForceTimeout(domain string) QueryResult {
	return r.resolve(domain, true)
}

func (r *refResolver) resolve(domain string, forceTimeout bool) QueryResult {
	r.counters.UserQueries++
	domain = strings.TrimSuffix(domain, ".")
	var res QueryResult
	start := r.now
	r.addTrace(0, "client", "resolver", domain, "A", "")

	if r.cached("A:" + domain) {
		r.counters.CacheHits++
		res.CacheHit = true
		res.LatencyMs = 0.1 + r.rng.Float64()*0.7
		return res
	}
	if r.cached("NEG:" + domain) {
		r.counters.CacheHits++
		res.CacheHit = true
		res.NXDomain = true
		res.LatencyMs = 0.1 + r.rng.Float64()*0.7
		return res
	}

	tldName := lastLabel(domain)
	tld, ok := r.zone.Lookup(tldName)
	if !ok {
		if r.localRootCurrent() {
			res.LatencyMs = 0.1 + r.rng.Float64()*0.4
			res.NXDomain = true
			r.put("NEG:"+domain, negTTLSeconds)
			return res
		}
		lat, letter := r.queryRoot(false, false)
		r.addTrace(r.now-start, "resolver", letterName(letter), domain, "A", "NXDOMAIN")
		res.LatencyMs = lat
		res.RootLatencyMs = lat
		res.RootQueriesOnPath = 1
		res.NXDomain = true
		r.put("NEG:"+domain, negTTLSeconds)
		return res
	}

	if r.localRootCurrent() {
		if !r.cached("NS:" + tldName) {
			ttl := float64(TLDTTLSeconds)
			r.put("NS:"+tldName, ttl)
			for i := 0; i < tld.GluedA && i < len(tld.NSNames); i++ {
				r.put("ADDR:"+tld.NSNames[i], ttl)
			}
		}
	} else if !r.cached("NS:" + tldName) {
		lat, letter := r.queryRoot(true, false)
		r.addTrace(r.now-start, "resolver", letterName(letter), tldName, "NS", "referral")
		res.LatencyMs += lat
		res.RootLatencyMs += lat
		res.RootQueriesOnPath++
		ttl := float64(TLDTTLSeconds) * (0.9 + 0.1*r.rng.Float64())
		r.put("NS:"+tldName, ttl)
		for i := 0; i < tld.GluedA && i < len(tld.NSNames); i++ {
			r.put("ADDR:"+tld.NSNames[i], ttl)
		}
	}

	if domain == tldName {
		res.LatencyMs += r.ups.TLDRTT()
		r.put("A:"+domain, r.sldTTL())
		return res
	}

	tldLat := r.ups.TLDRTT()
	res.LatencyMs += tldLat
	r.put("NS:"+tldName, float64(TLDTTLSeconds)*(0.9+0.1*r.rng.Float64()))
	nsNames, glued := refSLDDelegation(domain)
	r.addTrace(r.now-start, "resolver", "tld."+tldName, domain, "A",
		fmt.Sprintf("referral to %d NS (%d glued)", len(nsNames), glued))
	for i := 0; i < glued; i++ {
		r.put("ADDR:"+nsNames[i], 3600)
	}

	timedOut := forceTimeout || r.rng.Float64() < r.ups.AuthTimeoutProb
	if timedOut {
		r.timeouts++
		res.LatencyMs += timeoutPenaltyMs
		r.addTrace(r.now-start, "resolver", "ns-primary."+domain, domain, "A", "timeout")
		res.LatencyMs += r.ups.AuthRTT(domain)
		r.addTrace(r.now-start, "resolver", "ns-alt."+domain, domain, "A", "answer")
		if r.cfg.Bug {
			for _, ns := range nsNames {
				if r.localRootCurrent() {
					r.put("ADDR:"+ns, 3600)
					continue
				}
				if !r.cached("ADDR:" + ns) {
					r.queryRoot(true, true)
					r.addTrace(r.now-start, "resolver", "root", ns, "A", "redundant")
					r.put("ADDR:"+ns, 3600)
				}
				r.queryRoot(true, true)
				r.addTrace(r.now-start, "resolver", "root", ns, "AAAA", "redundant")
				res.RedundantRootQueries++
			}
		}
	} else {
		res.LatencyMs += r.ups.AuthRTT(domain)
		r.addTrace(r.now-start, "resolver", "ns-primary."+domain, domain, "A", "answer")
	}
	r.put("A:"+domain, r.sldTTL())
	return res
}

func (r *refResolver) sldTTL() float64 {
	lo, hi := math.Log(sldTTLMinSeconds), math.Log(sldTTLMaxSeconds)
	return math.Exp(lo + r.rng.Float64()*(hi-lo))
}

func refStandardUpstreams(rootBaseRTTs []float64, rng *rand.Rand) refUpstreams {
	return refUpstreams{
		RootRTT: func(letter int) float64 {
			return jitterRTT(rootBaseRTTs[letter%len(rootBaseRTTs)], rng)
		},
		TLDRTT: func() float64 {
			return jitterRTT(8+rng.ExpFloat64()*15, rng)
		},
		AuthRTT: func(domain string) float64 {
			h := uint32(216613626)
			for i := 0; i < len(domain); i++ {
				h = (h ^ uint32(domain[i])) * 16777619
			}
			return jitterRTT(3+float64(h%240), rng)
		},
		AuthTimeoutProb: 0.004,
	}
}

func refSampleDomain(c *Client) string {
	tld := c.zone.TLDs[c.palette[c.rng.Intn(len(c.palette))]]
	site := c.zipf.Uint64()
	return fmt.Sprintf("site%d.%s", site, tld.Name)
}

func refSampleChromiumProbe(c *Client) string {
	n := 7 + c.rng.Intn(9)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + c.rng.Intn(26))
	}
	return string(b)
}

func refSampleJunk(c *Client) string {
	return fmt.Sprintf("host%d.%s", c.rng.Intn(2000), junkSuffixes[c.rng.Intn(len(junkSuffixes))])
}

// refRunCtx is the client loop that spelled every name and called
// ResolveA.
func refRunCtx(c *Client, r *refResolver, days float64, onResult func(QueryKind, QueryResult)) RunStats {
	totalRate := float64(c.cfg.Users) *
		(c.cfg.QueriesPerUserPerDay + chromiumProbesPerUserPerDay + junkPerUserPerDay) / 86400
	pProbe := chromiumProbesPerUserPerDay /
		(c.cfg.QueriesPerUserPerDay + chromiumProbesPerUserPerDay + junkPerUserPerDay)
	pJunk := junkPerUserPerDay /
		(c.cfg.QueriesPerUserPerDay + chromiumProbesPerUserPerDay + junkPerUserPerDay)

	end := r.now + days*86400
	var stats RunStats
	for {
		dt := c.rng.ExpFloat64() / totalRate
		next := r.now + dt
		if next > end {
			break
		}
		r.AdvanceTo(next)
		u := c.rng.Float64()
		var kind QueryKind
		var name string
		switch {
		case u < pProbe:
			kind, name = QueryProbe, refSampleChromiumProbe(c)
		case u < pProbe+pJunk:
			kind, name = QueryJunk, refSampleJunk(c)
		default:
			kind, name = QueryValid, refSampleDomain(c)
		}
		res := r.ResolveA(name)
		stats.Queries++
		switch kind {
		case QueryProbe:
			stats.ProbeQueries++
		case QueryJunk:
			stats.JunkQueries++
		default:
			stats.ValidQueries++
		}
		stats.TotalLatencyMs += res.LatencyMs
		stats.RootLatencyMs += res.RootLatencyMs
		if onResult != nil {
			onResult(kind, res)
		}
	}
	return stats
}

// oracleRootRTTs are the root letters' base RTTs in every oracle run.
var oracleRootRTTs = []float64{30, 45, 60, 25, 35, 50, 40, 55, 70, 90, 20, 65, 80}

// oracleConfigs returns every combination of Bug and LocalRoot.
func oracleConfigs() []ResolverConfig {
	var out []ResolverConfig
	for i := 0; i < 4; i++ {
		out = append(out, ResolverConfig{
			NumLetters: len(oracleRootRTTs),
			Bug:        i&1 != 0,
			LocalRoot:  i&2 != 0,
		})
	}
	return out
}

// cfgName names a config's subtest. Every resolver refreshes its cached
// TLD NS RRset from TLD responses, which the fixed nonsrefresh=false
// part states.
func cfgName(cfg ResolverConfig) string {
	return fmt.Sprintf("bug=%t/localroot=%t/nonsrefresh=false", cfg.Bug, cfg.LocalRoot)
}

// oracleTimeoutProb raises the authoritative timeout rate from 0.4% so
// that the timeout and bug branches run thousands of times a run.
const oracleTimeoutProb = 0.2

// newOraclePair builds a typed resolver and a reference one with equal
// configs, upstreams and RNG seeds.
func newOraclePair(t *testing.T, z *Zone, cfg ResolverConfig, seed int64) (*Resolver, *refResolver) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ups := StandardUpstreams(oracleRootRTTs, rng)
	ups.AuthTimeoutProb = oracleTimeoutProb
	r, err := NewResolver(z, cfg, ups, rng)
	if err != nil {
		t.Fatal(err)
	}
	refRNG := rand.New(rand.NewSource(seed))
	refUps := refStandardUpstreams(oracleRootRTTs, refRNG)
	refUps.AuthTimeoutProb = oracleTimeoutProb
	return r, newRefResolver(z, cfg, refUps, refRNG)
}

type queryOutcome struct {
	kind QueryKind
	res  QueryResult
}

// runOutcome is what one client run shows from outside: every query's
// kind and result, and the resolver's state after the run.
type runOutcome struct {
	queries  []queryOutcome
	stats    RunStats
	counters Counters
	now      float64
	trace    []TraceStep
}

func (o *runOutcome) addStats(st RunStats) {
	o.stats.Queries += st.Queries
	o.stats.ValidQueries += st.ValidQueries
	o.stats.ProbeQueries += st.ProbeQueries
	o.stats.JunkQueries += st.JunkQueries
	o.stats.TotalLatencyMs += st.TotalLatencyMs
	o.stats.RootLatencyMs += st.RootLatencyMs
}

// runTyped runs the client on r for two one-day calls, tracing from the
// first query when traced is set.
func runTyped(z *Zone, r *Resolver, seed int64, traced bool) runOutcome {
	c := NewClient(z, ClientConfig{Users: 40}, seed)
	var out runOutcome
	collect := func(kind QueryKind, res QueryResult) {
		out.queries = append(out.queries, queryOutcome{kind, res})
	}
	if traced {
		r.StartTrace()
	}
	for day := 0; day < 2; day++ {
		out.addStats(c.RunCtx(context.Background(), r, 1, collect))
	}
	out.trace = r.StopTrace()
	out.counters, out.now = r.Counters(), r.Now()
	return out
}

// runRef is runTyped on the reference resolver and client loop.
func runRef(z *Zone, r *refResolver, seed int64) runOutcome {
	c := NewClient(z, ClientConfig{Users: 40}, seed)
	var out runOutcome
	collect := func(kind QueryKind, res QueryResult) {
		out.queries = append(out.queries, queryOutcome{kind, res})
	}
	r.StartTrace()
	for day := 0; day < 2; day++ {
		out.addStats(refRunCtx(c, r, 1, collect))
	}
	out.trace = r.StopTrace()
	out.counters, out.now = r.counters, r.now
	return out
}

// compareOutcomes reports the first query where got and want part, then
// any difference in the run's totals and state.
func compareOutcomes(t *testing.T, label string, got, want runOutcome) {
	t.Helper()
	if len(got.queries) != len(want.queries) {
		t.Errorf("%s: %d queries, want %d", label, len(got.queries), len(want.queries))
	}
	for i := 0; i < len(got.queries) && i < len(want.queries); i++ {
		if got.queries[i] != want.queries[i] {
			t.Errorf("%s: query %d = %+v, want %+v", label, i, got.queries[i], want.queries[i])
			break
		}
	}
	if got.stats != want.stats {
		t.Errorf("%s: stats = %+v, want %+v", label, got.stats, want.stats)
	}
	if !reflect.DeepEqual(got.counters, want.counters) {
		t.Errorf("%s: counters = %+v, want %+v", label, got.counters, want.counters)
	}
	if got.now != want.now {
		t.Errorf("%s: Now() = %v, want %v", label, got.now, want.now)
	}
	if len(got.trace) != len(want.trace) {
		t.Errorf("%s: %d trace steps, want %d", label, len(got.trace), len(want.trace))
	}
	for i := 0; i < len(got.trace) && i < len(want.trace); i++ {
		if got.trace[i] != want.trace[i] {
			t.Errorf("%s: trace step %d = %+v, want %+v", label, i, got.trace[i], want.trace[i])
			break
		}
	}
}

// TestResolverMatchesStringOracle drives the typed client loop and the
// reference string loop from equal seeds under every resolver config and
// requires the same queries, results, counters, clock and trace. A third,
// untraced typed run must match the traced one: tracing only spells
// names, it never draws.
func TestResolverMatchesStringOracle(t *testing.T) {
	z := NewZone(1000, 21)
	for i, cfg := range oracleConfigs() {
		cfg := cfg
		seed := int64(100 + i)
		t.Run(cfgName(cfg), func(t *testing.T) {
			r, ref := newOraclePair(t, z, cfg, seed)
			want := runRef(z, ref, seed)
			got := runTyped(z, r, seed, true)
			compareOutcomes(t, "typed vs string", got, want)

			untracedR, _ := newOraclePair(t, z, cfg, seed)
			untraced := runTyped(z, untracedR, seed, false)
			untraced.trace = got.trace
			compareOutcomes(t, "untraced vs traced", untraced, got)

			t.Logf("%d queries, %d authoritative timeouts, %d redundant root queries",
				len(want.queries), ref.timeouts, want.counters.RootQueriesRedundant)
			if ref.timeouts < 1000 {
				t.Errorf("only %d authoritative timeouts; the bug branch is barely covered", ref.timeouts)
			}
			if cfg.Bug && !cfg.LocalRoot && want.counters.RootQueriesRedundant < 1000 {
				t.Errorf("only %d redundant root queries", want.counters.RootQueriesRedundant)
			}
		})
	}
}

// stringAPINames are string-API queries: tab5's names, bare, invalid and
// trailing-dot names, and spellings next to the generated forms that must
// not alias them, in the string oracle or in the typed cache's packed key.
var stringAPINames = []struct {
	name  string
	force bool
}{
	{"warmup.com", false},
	{"bidder.criteo.com", true},
	{"bidder.criteo.com", false},
	{"bidder.criteo.com.", true},
	{"com", false},
	{"com.", false},
	{"net.", true},
	{"qkzptwv", false},
	{"qkzptwv.", false},
	{"site12.net", true},
	{"site12.net.", false},
	{"site012.net", true},
	{"site0.org", true},
	{"site.org", false},
	{"site-1.org", false},
	{"site18446744073709551616.com", false},
	// site0.net's cache key is 1<<34 (net is zone index 1); without the
	// key's 32-bit number bound, site4294967296.com would fold onto it.
	{"site0.net", false},
	{"site4294967296.com", false},
	{"site4294967295.com", true},
	{"Site12.net", false},
	{"host7.local", false},
	{"host7.local.", true},
	{"host07.local", false},
	{"host7.com", true},
	{"site1.nosuchtld", false},
	{"ns20.bidder.criteo.com", true},
	{"a..com", true},
	{"", false},
	{".", false},
}

// TestStringAPIMatchesStringOracle resolves stringAPINames through
// ResolveA and ResolveAForceTimeout on both resolvers, traced, then again
// after a client run has filled the caches and forced timeouts have
// re-run the bug path every 20 minutes, and once more after every TTL
// has expired.
func TestStringAPIMatchesStringOracle(t *testing.T) {
	z := NewZone(1000, 22)
	for i, cfg := range oracleConfigs() {
		cfg := cfg
		seed := int64(200 + i)
		t.Run(cfgName(cfg), func(t *testing.T) {
			r, ref := newOraclePair(t, z, cfg, seed)
			pass := func(round string) {
				r.StartTrace()
				ref.StartTrace()
				for _, q := range stringAPINames {
					var got, want QueryResult
					if q.force {
						got, want = r.ResolveAForceTimeout(q.name), ref.ResolveAForceTimeout(q.name)
					} else {
						got, want = r.ResolveA(q.name), ref.ResolveA(q.name)
					}
					if got != want {
						t.Fatalf("%s: %q (force %t) = %+v, want %+v", round, q.name, q.force, got, want)
					}
				}
				var got, want runOutcome
				got.trace, want.trace = r.StopTrace(), ref.StopTrace()
				got.counters, want.counters = r.Counters(), ref.counters
				got.now, want.now = r.Now(), ref.now
				compareOutcomes(t, round, got, want)
			}
			pass("cold")
			// The client's generated names, resolved again as strings,
			// must find the entries the typed loop cached.
			got := runTyped(z, r, seed, false)
			want := runRef(z, ref, seed)
			want.trace = nil
			compareOutcomes(t, "client run", got, want)
			for k := 0; k < 40; k++ {
				for _, name := range []string{fmt.Sprintf("site%d.com", k), fmt.Sprintf("site%d.net.", k),
					fmt.Sprintf("host%d.corp", k)} {
					if g, w := r.ResolveA(name), ref.ResolveA(name); g != w {
						t.Fatalf("after client run: %q = %+v, want %+v", name, g, w)
					}
				}
			}
			// Forced timeouts on one set of names every 20 minutes: a name
			// whose answer TTL is shorter re-runs the bug path while its
			// out-of-glue addresses are still cached, and again once they
			// have expired, so their expiry must be neither extended nor
			// cut short.
			for step := 0; step < 8; step++ {
				r.AdvanceTo(r.Now() + 1200)
				ref.AdvanceTo(ref.now + 1200)
				for k := 0; k < 40; k++ {
					name := fmt.Sprintf("site%d.org", k)
					if g, w := r.ResolveAForceTimeout(name), ref.ResolveAForceTimeout(name); g != w {
						t.Fatalf("timeout step %d: %q = %+v, want %+v", step, name, g, w)
					}
				}
			}
			pass("warm")
			r.AdvanceTo(r.Now() + 3*TLDTTLSeconds)
			ref.AdvanceTo(ref.now + 3*TLDTTLSeconds)
			pass("expired")
		})
	}
}
