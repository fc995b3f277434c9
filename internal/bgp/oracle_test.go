package bgp

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"anycastctx/internal/geo"
	"anycastctx/internal/topology"
)

// refResolver is the per-site route decision that the host-major
// Resolver replaced, kept as a test oracle. It walks every site of the
// deployment in ID order and recomputes each site's visibility, its
// host's peering, entry and egress, and its transit distance, with
// strict-< comparisons, so the lowest site ID wins every tie.
type refResolver struct {
	r *Resolver
	// dist[p][siteID] = AS hops from transit/tier-1 p to the site's host.
	dist map[topology.ASN][]uint8
}

func newRefResolver(r *Resolver) *refResolver {
	ref := &refResolver{r: r, dist: make(map[topology.ASN][]uint8)}
	mids := append(append([]topology.ASN(nil), r.g.Transits()...), r.g.Tier1s()...)
	for _, p := range mids {
		d := make([]uint8, len(r.sites))
		for j, s := range r.sites {
			d[j] = r.hopsFromTransit(p, r.g.AS(s.Host))
		}
		ref.dist[p] = d
	}
	return ref
}

// visible reports whether src can use site s at all: global sites always,
// local sites only from the same region or with direct peering to the host.
func (ref *refResolver) visible(src *topology.AS, s Site) bool {
	if s.Global {
		return true
	}
	host := ref.r.g.AS(s.Host)
	if host != nil && host.Region >= 0 && host.Region == src.Region {
		return true
	}
	return ref.r.g.Peered(src.ASN, s.Host)
}

func (ref *refResolver) route(src topology.ASN) (Route, bool) {
	g := ref.r.g
	S := g.AS(src)
	if S == nil {
		return Route{}, false
	}

	// Phase 1: direct peer routes.
	best := Route{SiteID: -1}
	bestKey := 0.0
	for _, s := range ref.r.sites {
		if !ref.visible(S, s) || !g.Peered(src, s.Host) {
			continue
		}
		entry, dEntry := g.AS(s.Host).NearestPresence(S.Loc)
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
		return best, true
	}

	// Phase 2: provider routes.
	type provOption struct {
		prov    topology.ASN
		minDist uint8
	}
	var opts []provOption
	bestLen := uint8(255)
	for _, p := range S.Providers {
		dists, ok := ref.dist[p]
		if !ok {
			continue
		}
		md := uint8(255)
		for _, s := range ref.r.sites {
			if !ref.visible(S, s) {
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
		return Route{}, false
	}
	var chosen topology.ASN
	for _, o := range opts {
		if o.minDist == bestLen {
			chosen = o.prov
			break
		}
	}
	return ref.viaTransit(S, chosen, bestLen), true
}

func (ref *refResolver) viaTransit(S *topology.AS, p topology.ASN, d uint8) Route {
	g := ref.r.g
	entry, _ := g.AS(p).NearestPresence(S.Loc)
	dists := ref.dist[p]

	candidates := make([]Site, 0, len(ref.r.sites))
	for _, s := range ref.r.sites {
		if dists[s.ID] == d && ref.visible(S, s) {
			candidates = append(candidates, s)
		}
	}

	switch d {
	case 0, 1:
		best, bestKey := candidates[0], math.Inf(1)
		var bestEgress geo.Coord
		for _, s := range candidates {
			egress, dEg := g.AS(s.Host).NearestPresence(entry)
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
		type neighbor struct {
			u    topology.ASN
			pref float64
		}
		var ns []neighbor
		seen := map[topology.ASN]bool{}
		for _, s := range candidates {
			for _, u := range g.AS(s.Host).Providers {
				if seen[u] || !ref.r.adjacentUp(p, u) {
					continue
				}
				seen[u] = true
				ns = append(ns, neighbor{u, g.PairUnit(p, u)})
			}
		}
		sort.Slice(ns, func(i, j int) bool {
			if ns[i].pref != ns[j].pref {
				return ns[i].pref < ns[j].pref
			}
			return ns[i].u < ns[j].u
		})
		for _, n := range ns {
			uEntry, _ := g.AS(n.u).NearestPresence(entry)
			best, bestKey := Site{ID: -1}, math.Inf(1)
			var bestIx geo.Coord
			for _, s := range candidates {
				if !hasProvider(g.AS(s.Host), n.u) {
					continue
				}
				ix, dIx := g.AS(s.Host).NearestPresence(uEntry)
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
		fallthrough
	default:
		best, bestTie := candidates[0], math.Inf(1)
		for _, s := range candidates {
			if tie := g.PairUnit(p, s.Host); tie < bestTie {
				best, bestTie = s, tie
			}
		}
		mid, _ := g.AS(ref.r.preferredTier1(p)).NearestPresence(entry)
		host := g.AS(best.Host)
		up := host.Loc
		if len(host.Providers) > 0 {
			if U := g.AS(host.Providers[0]); U != nil {
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

// oracleCase is one graph and the deployments on it that the oracle
// test resolves from every AS.
type oracleCase struct {
	name  string
	g     *topology.Graph
	sites [][]Site
}

// jittered returns n points spread over g's first n regions.
func jittered(g *topology.Graph, n int, radiusKm float64, rng *rand.Rand) []geo.Coord {
	pts := make([]geo.Coord, n)
	for i := range pts {
		pts[i] = geo.Jitter(g.Regions[i%len(g.Regions)].Center, radiusKm, rng.Float64(), rng.Float64())
	}
	return pts
}

// cdnRingCase is the CDN's shape: one AS with many presence points,
// explicitly peered with a share of the eyeballs, and rings whose sites
// are prefixes of its presence.
func cdnRingCase(t *testing.T) oracleCase {
	g := buildWorld(t, 21)
	rng := rand.New(rand.NewSource(21))
	cdn := g.AddCDNAS("cdn", jittered(g, 60, 30, rng))
	for _, e := range g.Eyeballs() {
		if rng.Float64() < 0.4 {
			g.Peer(e, cdn.ASN)
		}
	}
	var rings [][]Site
	for _, n := range []int{7, 28, 60} {
		sites := make([]Site, n)
		for i := range sites {
			sites[i] = Site{ID: i, Loc: cdn.Presence[i], Host: cdn.ASN, Global: true}
		}
		rings = append(rings, sites)
	}
	return oracleCase{"cdn-ring", g, rings}
}

// sharedPartnerCase is the F root layout: the first global sites share
// one partner host present at each of them, the other global sites and
// every local site sit on a host of their own.
func sharedPartnerCase(t *testing.T) oracleCase {
	g := buildWorld(t, 22)
	rng := rand.New(rand.NewSource(22))
	const global, shared, total = 30, 18, 45
	locs := jittered(g, total, 60, rng)
	ups := func(i int) []topology.ASN {
		return []topology.ASN{g.Transits()[i%len(g.Transits())], g.Tier1s()[i%len(g.Tier1s())]}
	}
	partner := g.AddHostAS("partner", locs[:shared], ups(0), 0.6)
	sites := make([]Site, total)
	for i := range sites {
		sites[i] = Site{ID: i, Loc: locs[i], Host: partner.ASN, Global: i < global}
		if i >= shared {
			sites[i].Host = g.AddHostAS("site", locs[i:i+1], ups(i), 0.45).ASN
		}
	}
	return oracleCase{"shared-partner", g, [][]Site{sites}}
}

// localVisibilityCase puts local sites at eyeball region centers, so
// sources see them by region, and peers other eyeballs with their hosts
// explicitly, so sources elsewhere see them by peering.
func localVisibilityCase(t *testing.T) oracleCase {
	g := buildWorld(t, 23)
	far := geo.Anchors()[0].Coord
	global := g.AddHostAS("global", []geo.Coord{far}, []topology.ASN{g.Tier1s()[0]}, 0.1)
	sites := []Site{{ID: 0, Loc: far, Host: global.ASN, Global: true}}
	eyeballs := g.Eyeballs()
	for i := 0; i < 12; i++ {
		loc := g.Regions[g.AS(eyeballs[i*37]).Region].Center
		h := g.AddHostAS("local", []geo.Coord{loc}, []topology.ASN{g.Transits()[i%len(g.Transits())]}, 0.2)
		sites = append(sites, Site{ID: len(sites), Loc: loc, Host: h.ASN})
		for k := 0; k < 5; k++ {
			g.Peer(eyeballs[(i*53+k*101)%len(eyeballs)], h.ASN)
		}
	}
	return oracleCase{"local-visibility", g, [][]Site{sites}}
}

// mixedHostCase puts global and local sites on one multi-presence host,
// next to single-site hosts, so sources outside the host's region that
// do not peer with it fall back to its global sites.
func mixedHostCase(t *testing.T) oracleCase {
	g := buildWorld(t, 24)
	rng := rand.New(rand.NewSource(24))
	locs := jittered(g, 24, 200, rng)
	mixed := g.AddHostAS("mixed", locs[:16], []topology.ASN{g.Transits()[3], g.Tier1s()[1]}, 0.3)
	sites := make([]Site, len(locs))
	for i, loc := range locs {
		sites[i] = Site{ID: i, Loc: loc, Host: mixed.ASN, Global: i%3 == 0}
		if i >= 16 {
			ups := []topology.ASN{g.Transits()[i], g.Tier1s()[i%len(g.Tier1s())]}
			sites[i].Host = g.AddHostAS("site", []geo.Coord{loc}, ups, 0.3).ASN
			sites[i].Global = i%2 == 0
		}
	}
	return oracleCase{"mixed-host", g, [][]Site{sites}}
}

// duplicateLocationsCase gives two hosts the same presence and
// providers, with their sites at the same points in crossed ID order, so
// equal keys across hosts must go to the lower site ID; a third host
// carries two sites at one point. Half the eyeballs peer with both twin
// hosts, so the direct phase meets the same ties.
func duplicateLocationsCase(t *testing.T) oracleCase {
	g := buildWorld(t, 25)
	anchors := geo.Anchors()
	l1, l2, m := anchors[0].Coord, anchors[3].Coord, anchors[5].Coord
	ups := []topology.ASN{g.Transits()[0], g.Transits()[1], g.Tier1s()[0]}
	a := g.AddHostAS("twin-a", []geo.Coord{l1, l2}, ups, 0.3)
	b := g.AddHostAS("twin-b", []geo.Coord{l1, l2}, ups, 0.3)
	c := g.AddHostAS("pair", []geo.Coord{m}, []topology.ASN{g.Transits()[2], g.Tier1s()[1]}, 0.3)
	sites := []Site{
		{ID: 0, Loc: l1, Host: a.ASN, Global: true},
		{ID: 1, Loc: l2, Host: b.ASN, Global: true},
		{ID: 2, Loc: l2, Host: a.ASN, Global: true},
		{ID: 3, Loc: l1, Host: b.ASN, Global: true},
		{ID: 4, Loc: m, Host: c.ASN, Global: true},
		{ID: 5, Loc: m, Host: c.ASN, Global: true},
	}
	for i, e := range g.Eyeballs() {
		if i%2 == 0 {
			g.Peer(e, a.ASN)
			g.Peer(e, b.ASN)
		}
	}
	return oracleCase{"duplicate-locations", g, [][]Site{sites}}
}

// deepPathsCase hosts sites on transits themselves (0 hops from them)
// and on hosts whose only upstream is one tier-1 (2 hops from the
// transits that buy from it, 3 from the rest), with no peering, so every
// provider-route branch runs. One of those hosts carries a local site
// below a global one, which sources outside its region must pass over.
func deepPathsCase(t *testing.T) oracleCase {
	g := buildWorld(t, 26)
	rng := rand.New(rand.NewSource(26))
	locs := jittered(g, 10, 100, rng)
	var sites []Site
	var mixed topology.ASN
	up := []topology.ASN{g.Tier1s()[2]}
	for i, loc := range locs {
		s := Site{ID: i, Loc: loc, Global: true}
		switch i {
		case 0, 1:
			tr := g.AS(g.Transits()[i*7])
			s.Loc, s.Host = tr.Loc, tr.ASN
		case 2:
			mixed = g.AddHostAS("deep-mixed", locs[2:4], up, 0).ASN
			s.Host, s.Global = mixed, false
		case 3:
			s.Host = mixed
		default:
			s.Host = g.AddHostAS("deep", []geo.Coord{loc}, up, 0).ASN
		}
		sites = append(sites, s)
	}
	// Without the transit-hosted sites, no source is 0 hops away.
	deep := append([]Site(nil), sites[2:]...)
	for i := range deep {
		deep[i].ID = i
	}
	return oracleCase{"deep-paths", g, [][]Site{sites, deep}}
}

// noVisibleSiteCase deploys only local sites on unpeered hosts in a
// few regions, so most sources see no site at all.
func noVisibleSiteCase(t *testing.T) oracleCase {
	g := buildWorld(t, 27)
	var sites []Site
	for i := 0; i < 3; i++ {
		loc := g.Regions[i].Center
		h := g.AddHostAS("local", []geo.Coord{loc}, []topology.ASN{g.Transits()[i]}, 0)
		sites = append(sites, Site{ID: i, Loc: loc, Host: h.ASN})
	}
	return oracleCase{"no-visible-site", g, [][]Site{sites}}
}

// TestResolverMatchesPerSiteOracle resolves every AS of each graph
// through the host-major Resolver and through the per-site reference,
// and requires identical routes. Across the cases every decision phase
// must occur, so no branch of either goes untested.
func TestResolverMatchesPerSiteOracle(t *testing.T) {
	cases := []oracleCase{
		cdnRingCase(t),
		sharedPartnerCase(t),
		localVisibilityCase(t),
		mixedHostCase(t),
		duplicateLocationsCase(t),
		deepPathsCase(t),
		noVisibleSiteCase(t),
	}
	phases := map[string]int{}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for di, sites := range c.sites {
				r, err := NewResolver(c.g, sites)
				if err != nil {
					t.Fatal(err)
				}
				ref := newRefResolver(r)
				for _, src := range c.g.All() {
					got, gotOK := r.Route(src)
					want, wantOK := ref.route(src)
					if gotOK != wantOK || (gotOK && !got.Equal(want)) {
						t.Fatalf("deployment %d, AS%d: resolver (%+v, %v), per-site oracle (%+v, %v)",
							di, src, got, gotOK, want, wantOK)
					}
					switch {
					case !gotOK:
						phases["unreachable"]++
					case got.Direct:
						phases["direct"]++
					default:
						phases[fmt.Sprintf("transit-%d", got.PathLen-2)]++
					}
				}
			}
		})
	}
	for _, ph := range []string{"unreachable", "direct", "transit-0", "transit-1", "transit-2", "transit-3"} {
		if phases[ph] == 0 {
			t.Errorf("no %s route across the cases: %v", ph, phases)
		}
	}
}
