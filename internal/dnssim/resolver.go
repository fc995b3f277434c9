package dnssim

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"anycastctx/internal/obs"
)

// Observability handles, aggregated across every Resolver in the process
// (per-resolver figures stay in Counters). The redundant counter tracks
// the BIND bug triggers the paper's Appendix E measures.
var (
	obsResolvers     = obs.NewCounter("dnssim.resolvers_built")
	obsUserQueries   = obs.NewCounter("dnssim.user_queries")
	obsCacheHits     = obs.NewCounter("dnssim.cache_hits")
	obsRootValid     = obs.NewCounter("dnssim.root_queries_valid")
	obsRootInvalid   = obs.NewCounter("dnssim.root_queries_invalid")
	obsRootRedundant = obs.NewCounter("dnssim.root_queries_redundant")
	obsRootTCP       = obs.NewCounter("dnssim.root_queries_tcp")
	obsZoneRefreshes = obs.NewCounter("dnssim.zone_refreshes")
	obsTimeouts      = obs.NewCounter("dnssim.auth_timeouts")
)

// Upstreams supplies the resolver's view of the outside world: sampled
// round-trip times to root letters, TLD servers, and SLD authoritatives.
type Upstreams struct {
	// RootRTT samples an RTT in ms to the given root letter.
	RootRTT func(letter int) float64
	// TLDRTT samples an RTT to a TLD nameserver.
	TLDRTT func() float64
	// AuthRTT samples an RTT to a second-level-domain authoritative for
	// the queried name; domain.String spells it.
	AuthRTT func(domain Name) float64
	// AuthTimeoutProb is the per-lookup chance an authoritative query
	// times out (triggering retry — and, with the bug, redundant root
	// queries).
	AuthTimeoutProb float64
}

// ResolverConfig tunes the event-level recursive resolver.
type ResolverConfig struct {
	// NumLetters is how many root letters exist.
	NumLetters int
	// Bug enables the BIND redundant-query behavior (Appendix E): on an
	// authoritative timeout, the resolver queries the roots for the
	// AAAA/A records of the delegation's out-of-glue nameserver names even
	// though the relevant TLD NS record is cached.
	Bug bool
	// TruncationProb is the chance a UDP root response arrives truncated,
	// forcing a TCP retry (the handshakes the paper mines for RTTs, §3).
	TruncationProb float64
	// LocalRoot enables RFC 8806 operation: the resolver serves the root
	// zone from a local copy, so no user query ever waits on a root
	// server; the zone is refreshed once per TTL (the paper's "Ideal"
	// querying behavior made real, §4.3).
	LocalRoot bool
}

func (c ResolverConfig) withDefaults() ResolverConfig {
	if c.NumLetters == 0 {
		c.NumLetters = 13
	}
	if c.TruncationProb == 0 {
		c.TruncationProb = 0.04
	}
	return c
}

// Resolver behavior that every configuration shares.
const (
	// exploreProb is the chance a root query probes a random letter
	// instead of the lowest-sRTT one (recursives' preferential querying
	// with occasional exploration, Müller et al.).
	exploreProb float64 = 0.05
	// srttAlpha is the smoothing factor for sRTT updates.
	srttAlpha float64 = 0.3
	// negTTLSeconds is the negative-cache TTL for NXDOMAIN answers.
	negTTLSeconds float64 = 3600
	// sldTTLMinSeconds and sldTTLMaxSeconds bound (log-uniformly) the
	// TTLs of final answers.
	sldTTLMinSeconds float64 = 60
	sldTTLMaxSeconds float64 = 86400
	// timeoutPenaltyMs is the latency a client suffers per timeout+retry.
	timeoutPenaltyMs float64 = 800
	// addrTTLSeconds is the TTL of a nameserver address record.
	addrTTLSeconds float64 = 3600
)

// The logarithms of the answer TTL bounds, between which sldTTL draws
// uniformly, taken once.
var sldTTLLogMin, sldTTLLogMax = math.Log(sldTTLMinSeconds), math.Log(sldTTLMaxSeconds)

// Counters accumulates resolver statistics.
type Counters struct {
	UserQueries uint64
	// CacheHits counts user queries answered entirely from cache.
	CacheHits uint64
	// RootQueriesValid counts root queries for existing TLDs, including
	// redundant ones.
	RootQueriesValid uint64
	// RootQueriesInvalid counts root queries for nonexistent TLDs.
	RootQueriesInvalid uint64
	// RootQueriesRedundant counts bug-driven root queries (a subset of
	// RootQueriesValid: the cached TLD NS made them unnecessary).
	RootQueriesRedundant uint64
	// RootQueriesPerLetter splits all root queries by letter.
	RootQueriesPerLetter []uint64
	// RootQueriesTCP counts root queries retried over TCP after a
	// truncated UDP response.
	RootQueriesTCP uint64
	// ZoneRefreshes counts RFC 8806 local-root zone transfers.
	ZoneRefreshes uint64
}

// RootQueries returns all root queries (valid + invalid).
func (c *Counters) RootQueries() uint64 { return c.RootQueriesValid + c.RootQueriesInvalid }

// RootMissRate is the paper's "root cache miss rate": root queries as a
// fraction of user queries (§4.3; ISI median 0.5%).
func (c *Counters) RootMissRate() float64 {
	if c.UserQueries == 0 {
		return 0
	}
	return float64(c.RootQueries()) / float64(c.UserQueries)
}

// TraceStep is one message of a resolution, for the Table 5 reproduction.
type TraceStep struct {
	RelSeconds float64
	From, To   string
	QName      string
	QType      string
	Note       string
}

// QueryResult describes one user query's outcome.
type QueryResult struct {
	// LatencyMs is the total latency the user saw.
	LatencyMs float64
	// RootLatencyMs is the share of LatencyMs spent waiting on root
	// servers (zero when the TLD NS was cached).
	RootLatencyMs float64
	// RootQueriesOnPath counts root queries the user waited for.
	RootQueriesOnPath int
	// RedundantRootQueries counts bug-driven background root queries.
	RedundantRootQueries int
	// CacheHit reports a full cache answer.
	CacheHit bool
	// NXDomain reports a nonexistent TLD.
	NXDomain bool
}

// Resolver is an event-level caching recursive resolver. Time is virtual
// (seconds); callers advance it between queries. Not safe for concurrent
// use.
type Resolver struct {
	zone *Zone
	cfg  ResolverConfig
	ups  Upstreams
	rng  *rand.Rand

	now   float64
	cache map[uint64]entry  // Name.key -> what is cached for the name
	nsExp []float64         // zone TLD -> expiry of its cached NS RRset
	names map[string]uint64 // interned IDs of nameOther spellings
	srtt  []float64

	counters Counters
	trace    []TraceStep
	tracing  bool

	// localRootExpiry is when the RFC 8806 zone copy goes stale.
	localRootExpiry float64
}

// NewResolver creates a resolver over zone with the given upstreams.
func NewResolver(zone *Zone, cfg ResolverConfig, ups Upstreams, rng *rand.Rand) (*Resolver, error) {
	cfg = cfg.withDefaults()
	if zone == nil {
		return nil, fmt.Errorf("dnssim: nil zone")
	}
	if ups.RootRTT == nil || ups.TLDRTT == nil || ups.AuthRTT == nil {
		return nil, fmt.Errorf("dnssim: incomplete upstreams")
	}
	srtt := make([]float64, cfg.NumLetters)
	for i := range srtt {
		srtt[i] = math.Inf(1) // unknown
	}
	obsResolvers.Inc()
	return &Resolver{
		zone:  zone,
		cfg:   cfg,
		ups:   ups,
		rng:   rng,
		cache: make(map[uint64]entry),
		nsExp: make([]float64, zone.Len()),
		names: make(map[string]uint64),
		srtt:  srtt,
		counters: Counters{
			RootQueriesPerLetter: make([]uint64, cfg.NumLetters),
		},
	}, nil
}

// Now returns the resolver's virtual time in seconds.
func (r *Resolver) Now() float64 { return r.now }

// AdvanceTo moves virtual time forward (no-op if t is in the past).
func (r *Resolver) AdvanceTo(t float64) {
	if t > r.now {
		r.now = t
	}
}

// Counters returns accumulated statistics.
func (r *Resolver) Counters() Counters { return r.counters }

// StartTrace begins recording message steps (Table 5).
func (r *Resolver) StartTrace() { r.tracing = true; r.trace = nil }

// StopTrace stops recording and returns the steps.
func (r *Resolver) StopTrace() []TraceStep {
	r.tracing = false
	out := r.trace
	r.trace = nil
	return out
}

// addTrace records one step. Callers check r.tracing first, so no name or
// note is spelled out while nothing records.
func (r *Resolver) addTrace(rel float64, from, to, qname, qtype, note string) {
	r.trace = append(r.trace, TraceStep{rel, from, to, qname, qtype, note})
}

// entry is what the resolver caches for one name, each fact as the
// absolute time (seconds) it expires: the name's answer, its NXDOMAIN,
// and the addresses of its delegation's out-of-glue nameservers, which
// the bug path resolves and caches together. The glued addresses need no
// expiry: the TLD referral that precedes every use re-caches them. A
// fact never written reads 0, which is never live.
type entry struct {
	answer, nxdomain, outOfGlue float64
}

// live reports whether a fact expiring at exp is still cached.
func (r *Resolver) live(exp float64) bool { return exp > r.now }

// pickLetter applies sRTT preference with exploration.
func (r *Resolver) pickLetter() int {
	// Prefer probing any letter never tried: the k-th unknown one.
	unknown := 0
	for _, v := range r.srtt {
		if math.IsInf(v, 1) {
			unknown++
		}
	}
	if unknown > 0 {
		k := r.rng.Intn(unknown)
		for i, v := range r.srtt {
			if math.IsInf(v, 1) {
				if k == 0 {
					return i
				}
				k--
			}
		}
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

// queryRoot performs one root query, updating sRTT and counters. A
// truncated UDP response forces a TCP retry costing two extra round trips
// (SYN handshake plus the query itself).
func (r *Resolver) queryRoot(valid, redundant bool) (latencyMs float64, letter int) {
	letter = r.pickLetter()
	lat := r.ups.RootRTT(letter)
	if r.rng.Float64() < r.cfg.TruncationProb {
		lat += 2 * r.ups.RootRTT(letter)
		r.counters.RootQueriesTCP++
		obsRootTCP.Inc()
	}
	if math.IsInf(r.srtt[letter], 1) {
		r.srtt[letter] = lat
	} else {
		r.srtt[letter] = (1-srttAlpha)*r.srtt[letter] + srttAlpha*lat
	}
	if valid {
		r.counters.RootQueriesValid++
		obsRootValid.Inc()
	} else {
		r.counters.RootQueriesInvalid++
		obsRootInvalid.Inc()
	}
	if redundant {
		r.counters.RootQueriesRedundant++
		obsRootRedundant.Inc()
	}
	r.counters.RootQueriesPerLetter[letter]++
	return lat, letter
}

// localRootCurrent refreshes the RFC 8806 local zone copy if stale and
// reports that the zone answers locally.
func (r *Resolver) localRootCurrent() bool {
	if !r.cfg.LocalRoot {
		return false
	}
	if r.now >= r.localRootExpiry {
		r.counters.ZoneRefreshes++
		obsZoneRefreshes.Inc()
		r.localRootExpiry = r.now + TLDTTLSeconds
	}
	return true
}

// sldDelegation deterministically derives the nameserver set for a
// second-level domain: 2–6 NS names under the domain itself (nsName), with
// A glue in the TLD's response for only the first few — the out-of-glue
// remainder is what the bug re-resolves via the roots.
func sldDelegation(domain Name) (ns, glued int) {
	h := domain.hash(2166136261)
	ns = 2 + int(h%5)       // 2..6
	glued = 1 + int(h>>8)%2 // 1..2
	if glued > ns {
		glued = ns
	}
	return ns, glued
}

// nsName spells the i-th nameserver of domain's delegation.
func nsName(i int, domain string) string {
	return fmt.Sprintf("ns%d.%s", 20+i, domain)
}

// ResolveA resolves an A query for domain ("label.tld" or a single label)
// as a user query at the current virtual time.
func (r *Resolver) ResolveA(domain string) QueryResult {
	return r.resolve(r.parseName(domain), false)
}

// ResolveAForceTimeout is ResolveA with the authoritative timeout forced,
// for reproducing the redundant-query trace deterministically (Table 5).
func (r *Resolver) ResolveAForceTimeout(domain string) QueryResult {
	return r.resolve(r.parseName(domain), true)
}

func (r *Resolver) resolve(n Name, forceTimeout bool) QueryResult {
	r.counters.UserQueries++
	obsUserQueries.Inc()
	var res QueryResult
	start := r.now
	var domain string // spelled only while tracing
	if r.tracing {
		domain = n.String()
		r.addTrace(0, "client", "resolver", domain, "A", "")
	}

	// Full-answer cache: one probe per query.
	key := n.key()
	e := r.cache[key]
	if answered := r.live(e.answer); answered || r.live(e.nxdomain) {
		r.counters.CacheHits++
		obsCacheHits.Inc()
		res.CacheHit = true
		res.NXDomain = !answered
		res.LatencyMs = 0.1 + r.rng.Float64()*0.7
		return res
	}

	tld, ok := r.tldOf(n)
	if !ok {
		// Invalid TLD: answered NXDOMAIN by the roots — or instantly from
		// the local zone copy under RFC 8806.
		res.NXDomain = true
		if r.localRootCurrent() {
			res.LatencyMs = 0.1 + r.rng.Float64()*0.4
		} else {
			lat, letter := r.queryRoot(false, false)
			if r.tracing {
				r.addTrace(r.now-start, "resolver", letterName(letter), domain, "A", "NXDOMAIN")
			}
			res.LatencyMs = lat
			res.RootLatencyMs = lat
			res.RootQueriesOnPath = 1
		}
		e.nxdomain = r.now + negTTLSeconds
		r.cache[key] = e
		return res
	}
	tldName := r.zone.TLDs[tld].Name

	// TLD NS from cache, the local zone copy, or a root query.
	if r.localRootCurrent() {
		if !r.live(r.nsExp[tld]) {
			r.nsExp[tld] = r.now + TLDTTLSeconds
		}
	} else if !r.live(r.nsExp[tld]) {
		lat, letter := r.queryRoot(true, false)
		if r.tracing {
			r.addTrace(r.now-start, "resolver", letterName(letter), tldName, "NS", "referral")
		}
		res.LatencyMs += lat
		res.RootLatencyMs += lat
		res.RootQueriesOnPath++
		r.nsExp[tld] = r.now + float64(TLDTTLSeconds)*(0.9+0.1*r.rng.Float64())
	}

	if n.kind == nameTLD {
		// A query for the TLD itself: answered by the TLD servers.
		res.LatencyMs += r.ups.TLDRTT()
		e.answer = r.now + r.sldTTL()
		r.cache[key] = e
		return res
	}

	// Query the TLD server for the delegation. Its response's authority
	// section re-delivers the TLD's NS RRset, refreshing the cache: only
	// TLDs untouched for a full TTL ever need the root again (it is why
	// busy resolvers' root miss rates sit near 0.5%).
	tldLat := r.ups.TLDRTT()
	res.LatencyMs += tldLat
	r.nsExp[tld] = r.now + float64(TLDTTLSeconds)*(0.9+0.1*r.rng.Float64())
	nsCount, glued := sldDelegation(n)
	if r.tracing {
		r.addTrace(r.now-start, "resolver", "tld."+tldName, domain, "A",
			fmt.Sprintf("referral to %d NS (%d glued)", nsCount, glued))
	}

	// Query the SLD authoritative.
	timedOut := forceTimeout || r.rng.Float64() < r.ups.AuthTimeoutProb
	if timedOut {
		obsTimeouts.Inc()
		res.LatencyMs += timeoutPenaltyMs
		if r.tracing {
			r.addTrace(r.now-start, "resolver", "ns-primary."+domain, domain, "A", "timeout")
		}
		// Retry another nameserver.
		res.LatencyMs += r.ups.AuthRTT(n)
		if r.tracing {
			r.addTrace(r.now-start, "resolver", "ns-alt."+domain, domain, "A", "answer")
		}
		if r.cfg.Bug {
			// BIND re-resolves the address records of every nameserver in
			// the delegation, starting from the root, even though the TLD
			// NS is cached — redundant queries (Appendix E). AAAA lookups
			// dominate because fewer AAAA records ride the additional
			// section. The referral above cached the glued addresses.
			// Under RFC 8806 the re-resolution consults the local zone
			// copy: no packet reaches the roots, and nothing is cached.
			if !r.localRootCurrent() {
				// Read once: an address this loop writes must not count
				// as cached for the next nameserver.
				outOfGlueLive := r.live(e.outOfGlue)
				for i := 0; i < nsCount; i++ {
					if i >= glued && !outOfGlueLive {
						r.queryRoot(true, true)
						if r.tracing {
							r.addTrace(r.now-start, "resolver", "root", nsName(i, domain), "A", "redundant")
						}
					}
					r.queryRoot(true, true)
					if r.tracing {
						r.addTrace(r.now-start, "resolver", "root", nsName(i, domain), "AAAA", "redundant")
					}
					res.RedundantRootQueries++
				}
				if !outOfGlueLive {
					e.outOfGlue = r.now + addrTTLSeconds
				}
			}
		}
	} else {
		res.LatencyMs += r.ups.AuthRTT(n)
		if r.tracing {
			r.addTrace(r.now-start, "resolver", "ns-primary."+domain, domain, "A", "answer")
		}
	}
	e.answer = r.now + r.sldTTL()
	r.cache[key] = e
	return res
}

// sldTTL draws a log-uniform answer TTL.
func (r *Resolver) sldTTL() float64 {
	return math.Exp(sldTTLLogMin + r.rng.Float64()*(sldTTLLogMax-sldTTLLogMin))
}

func lastLabel(name string) string {
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		return name[i+1:]
	}
	return name
}

func letterName(i int) string {
	return fmt.Sprintf("%c.root", 'A'+i%26)
}
