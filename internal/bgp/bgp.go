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
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"anycastctx/internal/geo"
	"anycastctx/internal/obs"
	"anycastctx/internal/par"
	"anycastctx/internal/topology"
)

// Observability handles. Route outcomes are counted by decision phase:
// direct (2-AS peering win), provider (shortest AS path via transit), and
// unreachable (no visible site). The cache metrics track the per-resolver
// route memo: routes_resolved and its phase counters advance only on cache
// misses, once the route has entered the cache (it is stored exactly once
// per resolver lifetime, and a fill that loses a concurrent race counts
// as a hit); route_cache_hits counts calls served from the memo, and
// route_cache_seeded the entries SeedFrom copied.
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

// Equal reports whether r and o are the same decision bit for bit: the
// same site, path length, directness and first hop, and the same
// waypoints down to the bits of every coordinate.
func (r Route) Equal(o Route) bool {
	if r.SiteID != o.SiteID || r.PathLen != o.PathLen || r.Direct != o.Direct || r.Via != o.Via ||
		len(r.Waypoints) != len(o.Waypoints) {
		return false
	}
	for i, p := range r.Waypoints {
		q := o.Waypoints[i]
		if math.Float64bits(p.Lat) != math.Float64bits(q.Lat) || math.Float64bits(p.Lon) != math.Float64bits(q.Lon) {
			return false
		}
	}
	return true
}

// cachedRoute is one memoized Route outcome, including the failure case.
// It never changes once published.
type cachedRoute struct {
	rt Route
	ok bool
}

// Resolver computes routes from source ASes to one anycast deployment.
// The BGP decision is made per host AS: peering, early exit and transit
// distance belong to the host, and only the last leg inside the host
// network depends on the site. The resolver therefore groups the sites
// by host once, precomputes per-transit reachability per host, and
// memoizes each source's route so the decision (and its Waypoints
// allocation) runs exactly once per resolver lifetime. The topology and
// site set are immutable after construction, and the memo publishes each
// entry atomically, so a Resolver is safe for concurrent use.
type Resolver struct {
	g     *topology.Graph
	sites []Site
	// pts holds each site's Loc prepared for distance work, by site ID.
	pts []geo.Point
	// hosts lists the deployment's host ASes in order of their first
	// site; hostOf[siteID] is the site's index into hosts.
	hosts  []host
	hostOf []int
	// transitDist[p][h] = AS hops from transit/tier-1 p to hosts[h]
	// (1 = adjacent, 2 = via one intermediate, 3 = via tier-1 mesh).
	// Computed lazily on the first route resolution under tablesOnce: a
	// resolver whose routes are never asked for costs nothing but its
	// host list. The graph must not change once the resolver exists.
	transitDist map[topology.ASN][]uint8
	tablesOnce  sync.Once

	// memo holds each source's decision at the source's slot in g
	// (Graph.Slot); an entry is nil until the first Route call for its
	// source. slots allocates the slice on first use.
	memo     []atomic.Pointer[cachedRoute]
	memoOnce sync.Once
}

// host is one AS announcing sites of the deployment.
type host struct {
	as *topology.AS
	// sites lists the host's site IDs in ascending order.
	sites []int
	// hasGlobal and hasLocal report whether the host carries global and
	// local sites.
	hasGlobal, hasLocal bool
	// idx indexes the locations of sites, in that order, when the host
	// carries more than one site.
	idx *geo.Index
}

// NewResolver prepares catchment computation for the given sites on g.
// Routes are decided lazily against g and memoized per source AS, so g
// must not change while the resolver is in use: add every AS and peering
// edge before building resolvers on it.
func NewResolver(g *topology.Graph, sites []Site) (*Resolver, error) {
	if len(sites) == 0 {
		return nil, fmt.Errorf("bgp: deployment has no sites")
	}
	r := &Resolver{g: g, sites: sites, pts: make([]geo.Point, len(sites)), hostOf: make([]int, len(sites))}
	hostNum := make(map[topology.ASN]int)
	for i, s := range sites {
		as := g.AS(s.Host)
		if as == nil {
			return nil, fmt.Errorf("bgp: site %d host AS%d not in graph", i, s.Host)
		}
		if s.ID != i {
			return nil, fmt.Errorf("bgp: site %d has ID %d; IDs must be dense and ordered", i, s.ID)
		}
		h, ok := hostNum[s.Host]
		if !ok {
			h = len(r.hosts)
			hostNum[s.Host] = h
			r.hosts = append(r.hosts, host{as: as})
		}
		r.pts[i] = geo.Prepare(s.Loc)
		r.hostOf[i] = h
		hs := &r.hosts[h]
		hs.sites = append(hs.sites, i)
		if s.Global {
			hs.hasGlobal = true
		} else {
			hs.hasLocal = true
		}
	}
	for i := range r.hosts {
		hs := &r.hosts[i]
		if len(hs.sites) > 1 {
			locs := make([]geo.Coord, len(hs.sites))
			for k, id := range hs.sites {
				locs[k] = sites[id].Loc
			}
			hs.idx = geo.NewIndex(locs)
		}
	}
	obsResolvers.Inc()
	return r, nil
}

// SitePoint returns site id's Loc prepared for distance work.
func (r *Resolver) SitePoint(id int) geo.Point { return r.pts[id] }

// computeTables fills transitDist for every transit and tier-1.
func (r *Resolver) computeTables() {
	mids := make([]topology.ASN, 0, len(r.g.Transits())+len(r.g.Tier1s()))
	mids = append(mids, r.g.Transits()...)
	mids = append(mids, r.g.Tier1s()...)
	td := make(map[topology.ASN][]uint8, len(mids))
	rows := make([]uint8, len(mids)*len(r.hosts))
	for i, p := range mids {
		dists := rows[i*len(r.hosts) : (i+1)*len(r.hosts) : (i+1)*len(r.hosts)]
		for h := range r.hosts {
			dists[h] = r.hopsFromTransit(p, r.hosts[h].as)
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
// host H: 1 if adjacent, 2 via one of H's providers, else 3 through the
// tier-1 mesh (always reachable).
func (r *Resolver) hopsFromTransit(p topology.ASN, H *topology.AS) uint8 {
	if p == H.ASN {
		return 0
	}
	if r.g.Connected(p, H.ASN) {
		return 1
	}
	for _, u := range H.Providers {
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
	if hasProvider(P, u) || hasProvider(U, p) {
		return true
	}
	return r.g.Peered(p, u)
}

// outcome names the decision phase behind a resolved route.
type outcome uint8

const (
	unreachable     outcome = iota // no visible site
	direct                         // 2-AS peering win
	viaProvider                    // shortest AS path, decided next to the source
	viaProviderDeep                // shortest AS path, decided 2+ hops away
)

// count advances the route counters for one resolution with outcome o.
func (o outcome) count() {
	switch o {
	case unreachable:
		obsUnreachable.Inc()
		return
	case direct:
		obsDirectRoutes.Inc()
	default:
		obsBestPathTies.Inc()
		obsProvRoutes.Inc()
		if o == viaProviderDeep {
			obsDeepDecisions.Inc()
		}
	}
	obsRoutes.Inc()
}

// Route resolves the catchment decision for source AS src. ok is false if
// no site is visible, or if src has no slot in the resolver's graph; such
// a source is neither memoized nor counted. The result is memoized:
// repeated calls for the same source return the cached Route
// (including the shared Waypoints slice, which callers must treat as
// read-only — every caller does, via Route.Dist or direct iteration).
// The first entry published for a source wins, and the route counters
// advance only for the call that published it, so a fill that loses a
// concurrent race counts as a hit.
func (r *Resolver) Route(src topology.ASN) (Route, bool) {
	memo := r.slots()
	i := r.g.Slot(src)
	if uint(i) >= uint(len(memo)) {
		return Route{}, false
	}
	slot := &memo[i]
	if c := slot.Load(); c != nil {
		obsCacheHits.Inc()
		return c.rt, c.ok
	}
	rt, o := r.resolveRoute(src)
	c := &cachedRoute{rt, o != unreachable}
	if !slot.CompareAndSwap(nil, c) {
		c = slot.Load()
		obsCacheHits.Inc()
		return c.rt, c.ok
	}
	o.count()
	obsCacheMisses.Inc()
	return c.rt, c.ok
}

// slots returns the memo, sized to the graph on first use: a world
// loaded from the store builds resolvers that never resolve a route.
func (r *Resolver) slots() []atomic.Pointer[cachedRoute] {
	r.memoOnce.Do(r.allocMemo)
	return r.memo
}

func (r *Resolver) allocMemo() { r.memo = make([]atomic.Pointer[cachedRoute], r.g.Len()) }

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
// negative (unreachable) entries, in ascending source ASN order. It may
// run while other goroutines fill the memo: it visits the entries
// published by the time it reaches their slot.
func (r *Resolver) ForEachCached(fn func(src topology.ASN, rt Route, ok bool)) {
	memo := r.slots()
	for i, src := range r.g.All()[:len(memo)] {
		if c := memo[i].Load(); c != nil {
			fn(src, c.rt, c.ok)
		}
	}
}

// SeedFrom copies into r's cache every decision memoized in base that r
// would make identically, and returns how many it copied. r must be a
// what-if variant of base: its graph a clone of base's to which only
// ASes, and peering edges between hosts and ASes that carry no transit,
// were added; its sites base's with some withdrawn and others appended.
// Sources left unseeded re-resolve lazily, so seeding less costs work,
// never correctness.
//
// SeedFrom matches the sites in order, a site being the same site when
// its host, location and scope match: a base site that is not r's next
// site counts as withdrawn, and r's sites past the last match count as
// appended. A host's new edges are its peer list past the list's length
// in base's graph (Graph.Clone caps each list and Peer only appends).
// It seeds nothing when a site is appended on one host of several, or
// when a host's peer list does not extend base's. Otherwise an entry
// survives, renumbered, unless:
//
//  1. its source gained an edge with a host of r: peering enters only
//     the source's own phase-1 decision;
//  2. it routes onto a withdrawn site: every phase keeps its strict-<
//     winner (lowest ID on ties) when a loser goes;
//  3. a site was appended on a host base lacks, and the entry is not a
//     direct route from a source peered with none of those hosts: a new
//     host competes in phase 1 only for its peers, but may beat any
//     transit route or reach an unreachable source;
//  4. a site was appended on base's only host, strictly nearer than the
//     route's site to the route's second-to-last waypoint, which every
//     branch of a one-host decision measures from (the d ≥ 3 branch
//     keeps the first site, so a drop there only costs a re-resolution).
//
// A kept entry whose site keeps its ID is shared with base; a renumbered
// one is copied shallowly. Either way the Waypoints backing arrays stay
// shared with base, which is safe because Routes are read-only
// everywhere by contract. r's graph is a clone of base's, so a source
// has the same slot in both memos, and r's memo extends base's by the
// ASes the clone added.
func (r *Resolver) SeedFrom(base *Resolver) int {
	remap, keep := r.diff(base)
	if keep == nil {
		return 0
	}
	srcs, from, memo := base.g.All(), base.slots(), r.slots()
	seeded := 0
	for i := range from {
		c := from[i].Load()
		if c == nil || !keep(srcs[i], c) {
			continue
		}
		if c.ok && remap[c.rt.SiteID] != c.rt.SiteID {
			renumbered := *c
			renumbered.rt.SiteID = remap[c.rt.SiteID]
			c = &renumbered
		}
		if memo[i].CompareAndSwap(nil, c) {
			seeded++
		}
	}
	obsCacheSeeded.Add(uint64(seeded))
	return seeded
}

// diff works out what r changed from base for SeedFrom: the site remap
// (base ID to r's, -1 for a withdrawn site) and the drop rules as a keep
// predicate, nil when SeedFrom must seed nothing.
func (r *Resolver) diff(base *Resolver) ([]int, func(topology.ASN, *cachedRoute) bool) {
	remap := make([]int, len(base.sites))
	n := 0 // r.sites[:n] survive from base, r.sites[n:] are appended
	for i, s := range base.sites {
		remap[i] = -1
		if s.ID = n; n < len(r.sites) && s == r.sites[n] {
			remap[i], n = n, n+1
		}
	}
	var newHosts []topology.ASN // hosts of appended sites that base lacks
	var grown []int             // appended sites on base's only host
	for _, a := range r.sites[n:] {
		switch {
		case !slices.ContainsFunc(base.hosts, func(h host) bool { return h.as.ASN == a.Host }):
			newHosts = append(newHosts, a.Host)
		case len(base.hosts) > 1:
			return nil, nil
		default:
			grown = append(grown, a.ID)
		}
	}
	peered := make(map[topology.ASN]bool) // sources with a new edge to a host of r
	for _, h := range r.hosts {
		now, was := h.as.Peers(), []topology.ASN(nil)
		if b := base.g.AS(h.as.ASN); b != nil {
			was = b.Peers()
		}
		if len(now) < len(was) || !slices.Equal(now[:len(was)], was) {
			return nil, nil
		}
		for _, e := range now[len(was):] {
			peered[e] = true
		}
	}
	return remap, func(src topology.ASN, c *cachedRoute) bool {
		switch {
		case peered[src]:
			return false
		case !c.ok:
			return n == len(r.sites)
		case remap[c.rt.SiteID] < 0, len(newHosts) > 0 && !c.rt.Direct:
			return false
		}
		for _, h := range newHosts {
			if r.g.Peered(src, h) {
				return false
			}
		}
		if len(grown) > 0 {
			ref := geo.Prepare(c.rt.Waypoints[len(c.rt.Waypoints)-2])
			for _, id := range grown {
				if ref.Compare(r.pts[id], base.pts[c.rt.SiteID]) < 0 {
					return false
				}
			}
		}
		return true
	}
}

// hostView is what a source that peers with no host sees of one host
// (phase 2 alone asks: a peered host ends the resolution in phase 1):
// visible reports that the source can use some site of the host; all,
// that it can use every one (the source shares the host's region, or the
// host has no local site).
type hostView struct {
	visible, all bool
}

// view returns what a source in region sees of hosts[h].
func (r *Resolver) view(h, region int) hostView {
	hs := &r.hosts[h]
	local := hs.as.Region >= 0 && hs.as.Region == region
	return hostView{visible: hs.hasGlobal || local, all: !hs.hasLocal || local}
}

// better reports whether a candidate site with key beats the incumbent
// best (negative: none yet) with bestKey: a lower key, or an equal key on
// a lower site ID — the winner a strict-< scan of the sites in ID order
// picks.
func better(key float64, site int, bestKey float64, best int) bool {
	return best < 0 || key < bestKey || (key == bestKey && site < best)
}

// nearestSite returns the site of hosts[h] nearest to c, and its distance
// in km, among every site of the host when all is set and among its
// global sites otherwise. Ties go to the lowest site ID. The source must
// see the host (hostView.visible).
func (r *Resolver) nearestSite(h int, c geo.Point, all bool) (int, float64) {
	hs := &r.hosts[h]
	switch {
	case hs.idx == nil:
		return hs.sites[0], c.DistanceKm(r.pts[hs.sites[0]])
	case all:
		i, d := hs.idx.Nearest(c)
		return hs.sites[i], d
	}
	best, bestD := -1, 0.0
	for _, id := range hs.sites {
		if !r.sites[id].Global {
			continue
		}
		if d := c.DistanceKm(r.pts[id]); best < 0 || d < bestD {
			best, bestD = id, d
		}
	}
	return best, bestD
}

// firstSite returns the lowest site ID of hosts[h] the source can use:
// any site when all is set, else a global one.
func (r *Resolver) firstSite(h int, all bool) int {
	for _, id := range r.hosts[h].sites {
		if all || r.sites[id].Global {
			return id
		}
	}
	return -1
}

// resolveRoute computes the BGP decision for src (the uncached path; see
// Route) and the phase that made it.
func (r *Resolver) resolveRoute(src topology.ASN) (Route, outcome) {
	S := r.g.AS(src) // Route checked that src has a slot

	// Phase 1: direct peer routes (path length 2), which BGP prefers on
	// local-pref and length. The source exits at its nearest interconnect
	// with the host; inside the host network the anycast address is
	// routed to the nearest site in the deployment (near-optimal WAN, §6).
	// A peered host's local sites are always in view.
	home := S.Point()
	best, bestKey := -1, 0.0
	var bestVia topology.ASN
	var bestEntry geo.Coord
	for h := range r.hosts {
		hs := &r.hosts[h]
		if !r.g.Peered(src, hs.as.ASN) {
			continue
		}
		entry := hs.as.NearestPoint(home)
		site, d := r.nearestSite(h, entry, true)
		if key := home.DistanceKm(entry) + d; better(key, site, bestKey, best) {
			best, bestKey, bestVia, bestEntry = site, key, hs.as.ASN, entry.Coord
		}
	}
	if best >= 0 {
		return Route{
			SiteID:    best,
			PathLen:   2,
			Direct:    true,
			Via:       bestVia,
			Waypoints: []geo.Coord{S.Loc, bestEntry, r.sites[best].Loc},
		}, direct
	}

	// Phase 2: provider routes. Shortest AS path across all providers wins
	// (equal local-pref multihoming); the first provider in preference
	// order achieving it carries the traffic, since a later provider
	// takes over only with a strictly shorter path.
	var chosen topology.ASN
	bestLen := uint8(255)
	td := r.tables()
	for _, p := range S.Providers {
		dists, ok := td[p]
		if !ok {
			// Provider is not a transit (shouldn't happen); skip.
			continue
		}
		for h, d := range dists {
			if d < bestLen && r.view(h, S.Region).visible {
				chosen, bestLen = p, d
			}
		}
	}
	if bestLen == 255 {
		return Route{}, unreachable
	}
	o := viaProvider
	if bestLen >= 2 {
		o = viaProviderDeep
	}
	return r.routeViaTransit(S, chosen, bestLen), o
}

// routeViaTransit picks the site reached through provider p among the
// sites source S, which peers with no host, sees on hosts at transit
// distance d, applying hot-potato selection at each stage.
func (r *Resolver) routeViaTransit(S *topology.AS, p topology.ASN, d uint8) Route {
	entry := r.g.AS(p).NearestPoint(S.Point())
	dists := r.tables()[p]
	candidate := func(h int) bool { return dists[h] == d && r.view(h, S.Region).visible }

	switch d {
	case 0, 1:
		// p hands off directly to the host; its egress is the host
		// interconnect, which for single-site hosts is the site itself.
		// Inside a multi-presence host (the CDN), the anycast address
		// then travels the internal WAN to the nearest deployed site.
		best, bestKey := -1, 0.0
		var bestEgress geo.Coord
		for h := range r.hosts {
			if !candidate(h) {
				continue
			}
			egress := r.hosts[h].as.NearestPoint(entry)
			site, dSite := r.nearestSite(h, egress, r.view(h, S.Region).all)
			if key := entry.DistanceKm(egress) + dSite; better(key, site, bestKey, best) {
				best, bestKey, bestEgress = site, key, egress.Coord
			}
		}
		return Route{
			SiteID:    best,
			PathLen:   int(d) + 2,
			Via:       p,
			Waypoints: []geo.Coord{S.Loc, entry.Coord, bestEgress, r.sites[best].Loc},
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
		for h := range r.hosts {
			if !candidate(h) {
				continue
			}
			for _, u := range r.hosts[h].as.Providers {
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
			uEntry := r.g.AS(n.u).NearestPoint(entry)
			best, bestKey := -1, 0.0
			var bestIx geo.Coord
			for h := range r.hosts {
				H := r.hosts[h].as
				if !candidate(h) || !hasProvider(H, n.u) {
					continue
				}
				ix := H.NearestPoint(uEntry)
				site, dSite := r.nearestSite(h, ix, r.view(h, S.Region).all)
				if key := uEntry.DistanceKm(ix) + dSite; better(key, site, bestKey, best) {
					best, bestKey, bestIx = site, key, ix.Coord
				}
			}
			if best < 0 {
				continue
			}
			return Route{
				SiteID:    best,
				PathLen:   int(d) + 2,
				Via:       p,
				Waypoints: []geo.Coord{S.Loc, entry.Coord, uEntry.Coord, bestIx, r.sites[best].Loc},
			}
		}
		// No neighbor found (shouldn't happen); fall through to arbitrary.
		fallthrough
	default:
		// Deeper paths: the decision is made far from the source and is
		// effectively arbitrary from its perspective.
		best, bestTie, bestHost := -1, 0.0, -1
		for h := range r.hosts {
			if !candidate(h) {
				continue
			}
			site := r.firstSite(h, r.view(h, S.Region).all)
			if tie := r.g.PairUnit(p, r.hosts[h].as.ASN); better(tie, site, bestTie, best) {
				best, bestTie, bestHost = site, tie, h
			}
		}
		mid := r.g.AS(r.preferredTier1(p)).NearestPoint(entry)
		H := r.hosts[bestHost].as
		up := H.Loc
		if len(H.Providers) > 0 {
			if U := r.g.AS(H.Providers[0]); U != nil {
				up = U.NearestPoint(r.pts[best]).Coord
			}
		}
		return Route{
			SiteID:    best,
			PathLen:   int(d) + 2,
			Via:       p,
			Waypoints: []geo.Coord{S.Loc, entry.Coord, mid.Coord, up, r.sites[best].Loc},
		}
	}
}

// hasProvider reports whether H buys transit from u.
func hasProvider(H *topology.AS, u topology.ASN) bool {
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
