// Package bgp computes anycast catchments: which site each source AS's
// traffic reaches, along what AS-path length, and through which geographic
// waypoints.
//
// The selection logic is a compact model of the BGP decision process the
// paper blames for inflation (§7.1–7.2):
//
//   - Direct peer routes (2 AS hops) win on local preference and path
//     length; their early-exit choice is made *at the source*, so they pick
//     the nearest interconnect — this is why the CDN's wide peering keeps
//     inflation low.
//   - Otherwise the shortest AS path wins, even when a longer path would
//     reach a geographically closer site. With more sites and heterogeneous
//     host connectivity, the shortest-path winner is more often a distant
//     site — larger deployments become less "efficient".
//   - Ties are broken hot-potato: each transit minimizes only its own leg,
//     and deeper in the hierarchy the decision point is farther from the
//     user's interest, so deep paths pick sites nearly arbitrarily.
package bgp

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"anycastctx/internal/geo"
	"anycastctx/internal/obs"
	"anycastctx/internal/par"
	"anycastctx/internal/topology"
)

// Observability handles. Route outcomes are counted by decision phase:
// direct (2-AS peering win), provider (shortest AS path via transit), and
// unreachable (no visible site). The cache metrics track the per-resolver
// route memo: routes_resolved and its phase counters advance only on cache
// misses (the route is computed exactly once per resolver lifetime);
// route_cache_hits counts calls served from the memo, and
// route_cache_entries gauges total cached routes across all resolvers.
var (
	obsResolvers     = obs.NewCounter("bgp.resolvers_built")
	obsRoutes        = obs.NewCounter("bgp.routes_resolved")
	obsDirectRoutes  = obs.NewCounter("bgp.routes_direct")
	obsProvRoutes    = obs.NewCounter("bgp.routes_provider")
	obsUnreachable   = obs.NewCounter("bgp.routes_unreachable")
	obsBestPathTies  = obs.NewCounter("bgp.best_path_decisions")
	obsDeepDecisions = obs.NewCounter("bgp.deep_path_decisions")
	obsCacheHits     = obs.NewCounter("bgp.route_cache_hits")
	obsCacheMisses   = obs.NewCounter("bgp.route_cache_misses")
	obsCacheEntries  = obs.NewGauge("bgp.route_cache_entries")
	obsCacheSeeded   = obs.NewCounter("bgp.route_cache_seeded")
)

// Site is one anycast site of a deployment.
type Site struct {
	// ID indexes the site within its deployment.
	ID int
	// Loc is the site's physical location.
	Loc geo.Coord
	// Host is the AS announcing the site's prefix.
	Host topology.ASN
	// Global indicates a globally announced site; local sites restrict
	// announcement propagation and are reachable only nearby (§2.1).
	Global bool
}

// Route is the outcome of the BGP decision for one source AS.
type Route struct {
	// SiteID is the chosen site's ID.
	SiteID int
	// PathLen is the number of ASes on the path, endpoints included
	// (2 = direct peering, as counted in Fig 6a).
	PathLen int
	// Direct reports a settlement-free direct path (source peers with the
	// site's host).
	Direct bool
	// Via is the first-hop AS (the host itself for direct routes).
	Via topology.ASN
	// Waypoints traces the path geographically from source to site,
	// suitable for propagation-delay computation. Always ≥ 2 points.
	Waypoints []geo.Coord
}

// Dist returns the summed great-circle length of the route's waypoint legs
// in kilometers.
func (r Route) Dist() float64 {
	var d float64
	for i := 1; i < len(r.Waypoints); i++ {
		d += geo.DistanceKm(r.Waypoints[i-1], r.Waypoints[i])
	}
	return d
}

// routeCacheShards stripes the route memo so concurrent cache fills from
// catchment workers contend on different locks (sources hash by ASN).
const routeCacheShards = 64

// routeCacheShard is one stripe of the per-resolver route memo.
type routeCacheShard struct {
	mu sync.RWMutex
	m  map[topology.ASN]cachedRoute
}

// cachedRoute is one memoized Route outcome, including the failure case.
type cachedRoute struct {
	rt Route
	ok bool
}

// Resolver computes routes from source ASes to one anycast deployment. It
// precomputes per-transit reachability so per-source resolution is cheap,
// and memoizes each source's route so the BGP decision (and its Waypoints
// allocation) runs exactly once per resolver lifetime. The topology and
// site set are immutable after construction; the internal cache is
// stripe-locked, so a Resolver is safe for concurrent use.
type Resolver struct {
	g     *topology.Graph
	sites []Site
	// hostOf[siteID] numbers the site's host AS densely in [0, numHosts),
	// so route resolution caches per-host work in a slice.
	hostOf   []int
	numHosts int
	// transitDist[p][siteID] = AS hops from transit/tier-1 p to the site's
	// host (1 = adjacent, 2 = via one intermediate, 3 = via tier-1 mesh).
	// Computed lazily on the first route resolution (or seeded from a
	// persisted artifact) under tablesOnce: a resolver whose routes are
	// never asked for costs nothing but its site list. The graph must not
	// change once the resolver exists.
	transitDist map[topology.ASN][]uint8
	tablesOnce  sync.Once

	cache [routeCacheShards]routeCacheShard
}

// NewResolver prepares catchment computation for the given sites on g.
func NewResolver(g *topology.Graph, sites []Site) (*Resolver, error) {
	if len(sites) == 0 {
		return nil, fmt.Errorf("bgp: deployment has no sites")
	}
	for i, s := range sites {
		if g.AS(s.Host) == nil {
			return nil, fmt.Errorf("bgp: site %d host AS%d not in graph", i, s.Host)
		}
		if s.ID != i {
			return nil, fmt.Errorf("bgp: site %d has ID %d; IDs must be dense and ordered", i, s.ID)
		}
	}
	r := &Resolver{g: g, sites: sites, hostOf: make([]int, len(sites))}
	hostNum := make(map[topology.ASN]int)
	for i, s := range sites {
		h, ok := hostNum[s.Host]
		if !ok {
			h = len(hostNum)
			hostNum[s.Host] = h
		}
		r.hostOf[i] = h
	}
	r.numHosts = len(hostNum)
	for i := range r.cache {
		r.cache[i].m = make(map[topology.ASN]cachedRoute)
	}
	obsResolvers.Inc()
	return r, nil
}

// computeTables fills transitDist for every transit and tier-1.
func (r *Resolver) computeTables() {
	td := make(map[topology.ASN][]uint8, len(r.g.Transits())+len(r.g.Tier1s()))
	mids := make([]topology.ASN, 0, len(r.g.Transits())+len(r.g.Tier1s()))
	mids = append(mids, r.g.Transits()...)
	mids = append(mids, r.g.Tier1s()...)
	for _, p := range mids {
		dists := make([]uint8, len(r.sites))
		for j, s := range r.sites {
			dists[j] = r.hopsFromTransit(p, s.Host)
		}
		td[p] = dists
	}
	r.transitDist = td
}

// tables returns the transit-distance tables, computing them on first use.
func (r *Resolver) tables() map[topology.ASN][]uint8 {
	r.tablesOnce.Do(r.computeTables)
	return r.transitDist
}

// hopsFromTransit returns the valley-free AS-hop count from transit p to
// host h: 1 if adjacent, 2 via one of h's providers, else 3 through the
// tier-1 mesh (always reachable).
func (r *Resolver) hopsFromTransit(p topology.ASN, h topology.ASN) uint8 {
	if p == h {
		return 0
	}
	if r.g.Connected(p, h) {
		return 1
	}
	H := r.g.AS(h)
	for _, u := range H.Providers {
		if u == p {
			return 1 // h buys from p (already covered by Connected, kept for clarity)
		}
		if r.adjacentUp(p, u) {
			return 2
		}
	}
	return 3
}

// adjacentUp reports whether p can use u as a next hop for a route u
// learned from a customer: p peers with u, p buys from u, or u buys from p.
func (r *Resolver) adjacentUp(p, u topology.ASN) bool {
	if p == u {
		return true
	}
	P := r.g.AS(p)
	U := r.g.AS(u)
	if P == nil || U == nil {
		return false
	}
	for _, pr := range P.Providers {
		if pr == u {
			return true
		}
	}
	for _, pr := range U.Providers {
		if pr == p {
			return true
		}
	}
	return r.g.Peered(p, u)
}

// visible reports whether src can use site s at all: global sites always,
// local sites only from the same region or with direct peering to the host.
func (r *Resolver) visible(src *topology.AS, s Site) bool {
	if s.Global {
		return true
	}
	host := r.g.AS(s.Host)
	if host != nil && host.Region >= 0 && host.Region == src.Region {
		return true
	}
	return r.g.Peered(src.ASN, s.Host)
}

// Route resolves the catchment decision for source AS src. ok is false if
// src is unknown or no site is visible. The result is memoized: repeated
// calls for the same source return the cached Route (including the shared
// Waypoints slice, which callers must treat as read-only — every caller
// does, via Route.Dist or direct iteration).
func (r *Resolver) Route(src topology.ASN) (Route, bool) {
	sh := &r.cache[uint32(src)%routeCacheShards]
	sh.mu.RLock()
	c, hit := sh.m[src]
	sh.mu.RUnlock()
	if hit {
		obsCacheHits.Inc()
		return c.rt, c.ok
	}
	rt, ok := r.resolveRoute(src)
	sh.mu.Lock()
	if c, hit = sh.m[src]; hit {
		// Lost a concurrent fill race; keep the first entry so every
		// caller shares one Waypoints slice.
		sh.mu.Unlock()
		obsCacheHits.Inc()
		return c.rt, c.ok
	}
	sh.m[src] = cachedRoute{rt, ok}
	sh.mu.Unlock()
	obsCacheMisses.Inc()
	obsCacheEntries.Add(1)
	return rt, ok
}

// WarmCtx fills the route cache for srcs across one worker per CPU. It is
// a pure pre-computation: outputs of later Route calls are
// byte-identical whether or not it ran. The caller's span context is
// threaded to the cache-fill shards, so a traced build shows per-worker
// "bgp.warm.shard" spans under the calling stage.
func (r *Resolver) WarmCtx(ctx context.Context, srcs []topology.ASN) {
	ctx, warm := obs.StartSpanCtx(ctx, "bgp.warm")
	defer warm.End()
	par.DoCtx(ctx, len(srcs), func(ctx context.Context, lo, hi int) {
		_, sp := obs.StartSpanCtx(ctx, "bgp.warm.shard")
		defer sp.End()
		for _, s := range srcs[lo:hi] {
			r.Route(s)
		}
	})
}

// ForEachCached calls fn once per memoized route decision, including
// negative (unreachable) entries. Iteration order is unspecified (it
// follows the shard maps), so callers must fold results
// order-independently — the scenario engine builds dirty *sets*, which
// are. Must not run concurrently with cache fills.
func (r *Resolver) ForEachCached(fn func(src topology.ASN, rt Route, ok bool)) {
	for i := range r.cache {
		sh := &r.cache[i]
		sh.mu.RLock()
		for src, c := range sh.m {
			fn(src, c.rt, c.ok)
		}
		sh.mu.RUnlock()
	}
}

// SeedFrom copies base's memoized decisions into r's cache for every
// source keep returns true for, translating site IDs through remap
// (remap[oldID] = newID in r's site set, negative = site withdrawn).
// A nil remap is the identity; a nil keep keeps everything.
//
// This is the scenario engine's cache-invalidation primitive: keep
// encodes the mutation's dirty-set rule, so entries whose decision the
// mutation could change are left unseeded and re-resolve lazily against
// r's own graph and sites. A kept positive entry whose site was
// withdrawn indicates a dirty-rule bug; such entries are skipped (they
// re-resolve, which is always sound) and excluded from the returned
// seeded count, so equivalence tests can still see the discrepancy as a
// performance signal rather than a corruption.
//
// Route values are copied shallowly: the Waypoints backing arrays stay
// shared with base, which is safe because Routes are read-only
// everywhere by contract.
func (r *Resolver) SeedFrom(base *Resolver, remap []int, keep func(src topology.ASN, rt Route, ok bool) bool) int {
	seeded := 0
	for i := range base.cache {
		bsh := &base.cache[i]
		sh := &r.cache[i] // same shard function on both resolvers
		bsh.mu.RLock()
		sh.mu.Lock()
		for src, c := range bsh.m {
			if keep != nil && !keep(src, c.rt, c.ok) {
				continue
			}
			e := c
			if c.ok && remap != nil {
				if c.rt.SiteID < 0 || c.rt.SiteID >= len(remap) || remap[c.rt.SiteID] < 0 {
					continue
				}
				e.rt.SiteID = remap[c.rt.SiteID]
			}
			if e.ok && (e.rt.SiteID < 0 || e.rt.SiteID >= len(r.sites)) {
				continue
			}
			sh.m[src] = e
			seeded++
		}
		sh.mu.Unlock()
		bsh.mu.RUnlock()
	}
	obsCacheSeeded.Add(uint64(seeded))
	obsCacheEntries.Add(float64(seeded))
	return seeded
}

// resolveRoute computes the BGP decision for src (the uncached path; see
// Route).
func (r *Resolver) resolveRoute(src topology.ASN) (Route, bool) {
	S := r.g.AS(src)
	if S == nil {
		obsUnreachable.Inc()
		return Route{}, false
	}

	// Phase 1: direct peer routes (path length 2). BGP prefers these on
	// local-pref and length; early exit picks the nearest interconnect.
	// Peering and entry points are per-host, so cache them: deployments
	// like the CDN share one host across every site.
	best := Route{SiteID: -1}
	bestKey := 0.0
	type hostEntry struct {
		seen   bool
		peered bool
		entry  geo.Coord
		dEntry float64
	}
	hosts := make([]hostEntry, r.numHosts)
	for _, s := range r.sites {
		if !r.visible(S, s) {
			continue
		}
		he := &hosts[r.hostOf[s.ID]]
		if !he.seen {
			he.seen = true
			he.peered = r.g.Peered(src, s.Host)
			if he.peered {
				he.entry, he.dEntry = r.g.AS(s.Host).NearestPresence(S.Loc)
			}
		}
		if !he.peered {
			continue
		}
		entry, dEntry := he.entry, he.dEntry
		// The source exits at its nearest interconnect with the host;
		// inside the host network the anycast address is routed to the
		// nearest site in the deployment (near-optimal WAN, §6).
		key := dEntry + geo.DistanceKm(entry, s.Loc)
		if best.SiteID == -1 || key < bestKey {
			best = Route{
				SiteID:    s.ID,
				PathLen:   2,
				Direct:    true,
				Via:       s.Host,
				Waypoints: []geo.Coord{S.Loc, entry, s.Loc},
			}
			bestKey = key
		}
	}
	if best.SiteID != -1 {
		obsRoutes.Inc()
		obsDirectRoutes.Inc()
		return best, true
	}

	// Phase 2: provider routes. Shortest AS path across all providers wins
	// (equal local-pref multihoming); the first provider in preference
	// order achieving it carries the traffic.
	type provOption struct {
		prov    topology.ASN
		minDist uint8
	}
	var opts []provOption
	bestLen := uint8(255)
	td := r.tables()
	for _, p := range S.Providers {
		dists, ok := td[p]
		if !ok {
			// Provider is not a transit (shouldn't happen); skip.
			continue
		}
		md := uint8(255)
		for _, s := range r.sites {
			if !r.visible(S, s) {
				continue
			}
			if d := dists[s.ID]; d < md {
				md = d
			}
		}
		if md == 255 {
			continue
		}
		opts = append(opts, provOption{p, md})
		if md < bestLen {
			bestLen = md
		}
	}
	if len(opts) == 0 {
		obsUnreachable.Inc()
		return Route{}, false
	}
	obsBestPathTies.Inc()
	var chosen topology.ASN
	for _, o := range opts {
		if o.minDist == bestLen {
			chosen = o.prov
			break
		}
	}

	obsRoutes.Inc()
	obsProvRoutes.Inc()
	return r.routeViaTransit(S, chosen, bestLen), true
}

// routeViaTransit picks the site reached through provider p among sites at
// transit distance d, applying hot-potato selection at each stage.
func (r *Resolver) routeViaTransit(S *topology.AS, p topology.ASN, d uint8) Route {
	if d >= 2 {
		obsDeepDecisions.Inc()
	}
	P := r.g.AS(p)
	entry, _ := P.NearestPresence(S.Loc)
	dists := r.tables()[p]

	candidates := make([]Site, 0, len(r.sites))
	for _, s := range r.sites {
		if dists[s.ID] == d && r.visible(S, s) {
			candidates = append(candidates, s)
		}
	}

	switch d {
	case 0, 1:
		// p hands off directly to the host; its egress is the host
		// interconnect, which for single-site hosts is the site itself.
		// Inside a multi-presence host (the CDN), the anycast address
		// then travels the internal WAN to the nearest deployed site.
		best, bestKey := candidates[0], math.Inf(1)
		var bestEgress geo.Coord
		for _, s := range candidates {
			host := r.g.AS(s.Host)
			egress, dEg := host.NearestPresence(entry)
			key := dEg + geo.DistanceKm(egress, s.Loc)
			if key < bestKey {
				best, bestKey, bestEgress = s, key, egress
			}
		}
		return Route{
			SiteID:    best.ID,
			PathLen:   int(d) + 2,
			Via:       p,
			Waypoints: []geo.Coord{S.Loc, entry, bestEgress, best.Loc},
		}
	case 2:
		// p learned the prefix from several upstream neighbors, all with
		// equal path length; its own hot-potato leg is ~0 to each (they
		// are well-spread networks), so the neighbor choice is effectively
		// arbitrary (router-id / session age). The chosen neighbor u then
		// routes within ITS customer cone: only sites whose hosts attach
		// to u are reachable at this length, and u hot-potato-exits to the one whose
		// interconnect is nearest u's entry. With heterogeneous hosts (the
		// root letters) u's cone holds few sites, so the "nearest" one can
		// be far from the user — the paper's large-deployment inflation.
		type neighbor struct {
			u    topology.ASN
			pref float64
		}
		var ns []neighbor
		seen := map[topology.ASN]bool{}
		for _, s := range candidates {
			for _, u := range r.g.AS(s.Host).Providers {
				if seen[u] || !r.adjacentUp(p, u) {
					continue
				}
				seen[u] = true
				ns = append(ns, neighbor{u, r.g.PairUnit(p, u)})
			}
		}
		sort.Slice(ns, func(i, j int) bool {
			if ns[i].pref != ns[j].pref {
				return ns[i].pref < ns[j].pref
			}
			return ns[i].u < ns[j].u
		})
		for _, n := range ns {
			U := r.g.AS(n.u)
			uEntry, _ := U.NearestPresence(entry)
			best, bestKey := Site{ID: -1}, math.Inf(1)
			var bestIx geo.Coord
			for _, s := range candidates {
				if !r.hasProvider(s.Host, n.u) {
					continue
				}
				ix, dIx := r.g.AS(s.Host).NearestPresence(uEntry)
				key := dIx + geo.DistanceKm(ix, s.Loc)
				if key < bestKey {
					best, bestKey, bestIx = s, key, ix
				}
			}
			if best.ID == -1 {
				continue
			}
			return Route{
				SiteID:    best.ID,
				PathLen:   int(d) + 2,
				Via:       p,
				Waypoints: []geo.Coord{S.Loc, entry, uEntry, bestIx, best.Loc},
			}
		}
		// No neighbor found (shouldn't happen); fall through to arbitrary.
		fallthrough
	default:
		// Deeper paths: the decision is made far from the source and is
		// effectively arbitrary from its perspective.
		best, bestTie := candidates[0], math.Inf(1)
		for _, s := range candidates {
			if tie := r.g.PairUnit(p, s.Host); tie < bestTie {
				best, bestTie = s, tie
			}
		}
		t1 := r.preferredTier1(p)
		T := r.g.AS(t1)
		mid, _ := T.NearestPresence(entry)
		host := r.g.AS(best.Host)
		up := host.Loc
		if len(host.Providers) > 0 {
			if U := r.g.AS(host.Providers[0]); U != nil {
				up, _ = U.NearestPresence(best.Loc)
			}
		}
		return Route{
			SiteID:    best.ID,
			PathLen:   int(d) + 2,
			Via:       p,
			Waypoints: []geo.Coord{S.Loc, entry, mid, up, best.Loc},
		}
	}
}

// hasProvider reports whether host h buys transit from u.
func (r *Resolver) hasProvider(h, u topology.ASN) bool {
	H := r.g.AS(h)
	for _, p := range H.Providers {
		if p == u {
			return true
		}
	}
	return false
}

// preferredTier1 returns p's deterministically preferred tier-1.
func (r *Resolver) preferredTier1(p topology.ASN) topology.ASN {
	t1s := r.g.Tier1s()
	best := t1s[0]
	bestU := 2.0
	for _, t := range t1s {
		if v := r.g.PairUnit(p, t); v < bestU {
			best, bestU = t, v
		}
	}
	return best
}
