// Package anycastnet assembles anycast deployments on the AS graph: it
// places sites near user concentrations, creates host ASes with per-letter
// connectivity characteristics, and wires up the BGP resolver that computes
// catchments.
//
// Root letters are modeled after the 2018 DITL inventory the paper analyzes
// (Fig 2a / Fig 10 legends): per-letter global and total site counts, plus
// an "openness" knob standing in for how widely each letter's hosts peer
// (F root partners with a global CDN and peers broadly; B root is a small
// two-site deployment with modest connectivity — §7.2).
package anycastnet

import (
	"context"
	"fmt"
	"math/rand"

	"anycastctx/internal/bgp"
	"anycastctx/internal/geo"
	"anycastctx/internal/topology"
)

// Deployment is one anycast service: a named set of sites plus the
// catchment resolver over a topology graph.
type Deployment struct {
	Name  string
	Sites []bgp.Site

	resolver *bgp.Resolver
	// global indexes the global sites' locations for ClosestGlobalSite;
	// globalIDs[i] is the site ID at index position i.
	global    *geo.Index
	globalIDs []int
}

// newDeployment wraps sites and their resolver, indexing the global sites.
func newDeployment(name string, sites []bgp.Site, res *bgp.Resolver) *Deployment {
	var locs []geo.Coord
	var ids []int
	for _, s := range sites {
		if s.Global {
			locs = append(locs, s.Loc)
			ids = append(ids, s.ID)
		}
	}
	return &Deployment{Name: name, Sites: sites, resolver: res, global: geo.NewIndex(locs), globalIDs: ids}
}

// SitePoint returns site id's Loc prepared for distance work.
func (d *Deployment) SitePoint(id int) geo.Point { return d.resolver.SitePoint(id) }

// NumGlobalSites returns the count of globally announced sites.
func (d *Deployment) NumGlobalSites() int {
	n := 0
	for _, s := range d.Sites {
		if s.Global {
			n++
		}
	}
	return n
}

// NumSites returns the total site count (global + local).
func (d *Deployment) NumSites() int { return len(d.Sites) }

// Route resolves the catchment for a source AS. Results are memoized in
// the underlying resolver, so repeated calls are cheap and safe to issue
// from concurrent goroutines.
func (d *Deployment) Route(src topology.ASN) (bgp.Route, bool) {
	return d.resolver.Route(src)
}

// WarmRoutesCtx pre-fills the deployment's route cache for srcs in
// parallel, threading the caller's span context to the cache-fill
// workers. Purely an optimization: subsequent Route calls return
// byte-identical results whether or not the cache was warmed.
func (d *Deployment) WarmRoutesCtx(ctx context.Context, srcs []topology.ASN) {
	d.resolver.WarmCtx(ctx, srcs)
}

// ForEachCachedRoute exposes the deployment's memoized route decisions
// (see bgp.Resolver.ForEachCached): one call per cached source, positive
// and negative entries alike, in ascending source ASN order.
func (d *Deployment) ForEachCachedRoute(fn func(src topology.ASN, rt bgp.Route, ok bool)) {
	d.resolver.ForEachCached(fn)
}

// Derive builds a deployment for a what-if variant of base: the same
// service on a new graph and site set, seeded with every route memoized
// in base that the variant cannot decide differently (see
// bgp.Resolver.SeedFrom). Other sources re-resolve lazily against g —
// this is how scenario overlays avoid recomputing the whole catchment.
func Derive(base *Deployment, g *topology.Graph, name string, sites []bgp.Site) (*Deployment, error) {
	res, err := bgp.NewResolver(g, sites)
	if err != nil {
		return nil, fmt.Errorf("anycastnet: derive %s: %w", name, err)
	}
	res.SeedFrom(base.resolver)
	return newDeployment(name, sites, res), nil
}

// Renamed returns a view of d under a different name, sharing d's sites,
// global-site index and resolver (and therefore its route cache).
// Scenario letter swaps use it: the deployment at a position changes
// while the position keeps its letter name.
func Renamed(d *Deployment, name string) *Deployment {
	r := *d
	r.Name = name
	return &r
}

// ClosestGlobalSite returns the ID and great-circle distance (km) of the
// global site nearest to loc (the lowest ID on ties), or (-1, 0) if the
// deployment has none.
func (d *Deployment) ClosestGlobalSite(loc geo.Coord) (int, float64) {
	return d.ClosestGlobalSiteTo(geo.Prepare(loc))
}

// ClosestGlobalSiteTo is ClosestGlobalSite for a prepared query.
func (d *Deployment) ClosestGlobalSiteTo(q geo.Point) (int, float64) {
	i, km := d.global.Nearest(q)
	if i < 0 {
		return -1, 0
	}
	return d.globalIDs[i], km
}

// LetterSpec describes one root letter's deployment.
type LetterSpec struct {
	// Letter is the root letter name ("A".."M").
	Letter string
	// GlobalSites and TotalSites are the 2018 DITL inventory counts.
	GlobalSites int
	TotalSites  int
	// Openness in [0,1] sets host peering richness — how much of the
	// letter's traffic arrives over direct (2-AS) paths.
	Openness float64
	// SharedHostFraction is the share of global sites hosted on a single
	// widely-present host network (CDN partnership, e.g. F+Cloudflare).
	SharedHostFraction float64
}

// Letters2018 is the per-letter inventory during the 2018 DITL (§3: the
// paper computes geographic inflation for these ten letters; G provides no
// data, H had one site, I is anonymized). Openness values are calibrated so
// the 2-AS path share spans the paper's 5–44% range (Fig 6a).
func Letters2018() []LetterSpec {
	return []LetterSpec{
		{Letter: "A", GlobalSites: 5, TotalSites: 5, Openness: 0.22},
		{Letter: "B", GlobalSites: 2, TotalSites: 2, Openness: 0.10},
		{Letter: "C", GlobalSites: 10, TotalSites: 10, Openness: 0.26},
		{Letter: "D", GlobalSites: 20, TotalSites: 117, Openness: 0.20},
		{Letter: "E", GlobalSites: 15, TotalSites: 85, Openness: 0.24},
		{Letter: "F", GlobalSites: 94, TotalSites: 141, Openness: 0.46, SharedHostFraction: 0.6},
		{Letter: "J", GlobalSites: 68, TotalSites: 110, Openness: 0.30},
		{Letter: "K", GlobalSites: 52, TotalSites: 53, Openness: 0.30},
		{Letter: "L", GlobalSites: 138, TotalSites: 138, Openness: 0.34},
		{Letter: "M", GlobalSites: 5, TotalSites: 6, Openness: 0.20},
	}
}

// Letters2020 is the usable subset of the 2020 DITL (Appendix B.3, Fig 11):
// B was unavailable, E included one site, F lacked its CDN-partner sites,
// and L was anonymized.
func Letters2020() []LetterSpec {
	return []LetterSpec{
		{Letter: "A", GlobalSites: 51, TotalSites: 51, Openness: 0.24},
		{Letter: "C", GlobalSites: 10, TotalSites: 10, Openness: 0.26},
		{Letter: "D", GlobalSites: 23, TotalSites: 130, Openness: 0.22},
		{Letter: "H", GlobalSites: 8, TotalSites: 8, Openness: 0.20},
		{Letter: "J", GlobalSites: 127, TotalSites: 160, Openness: 0.30},
		{Letter: "K", GlobalSites: 75, TotalSites: 80, Openness: 0.30},
		{Letter: "M", GlobalSites: 8, TotalSites: 9, Openness: 0.22},
	}
}

// TCPLatencyLetters2018 lists the letters with usable TCP RTTs in 2018
// (Fig 2b excludes D and L for malformed DITL pcaps).
var TCPLatencyLetters2018 = map[string]bool{
	"A": true, "B": true, "C": true, "E": true,
	"F": true, "J": true, "K": true, "M": true,
}

// AddLetterSites places one root letter's sites and adds their host ASes
// to g: global sites at the highest-population regions (operators deploy
// where users are, Fig 7b), local sites at random regions, each on a host
// whose upstreams are nearby transits plus a tier-1. The first
// SharedHostFraction of the global sites share one partner host present
// at all of them. NewDeployment turns the sites into the letter once g
// holds every AS it will ever hold.
func AddLetterSites(g *topology.Graph, spec LetterSpec, rng *rand.Rand) ([]bgp.Site, error) {
	if spec.GlobalSites < 1 {
		return nil, fmt.Errorf("anycastnet: letter %s has no global sites", spec.Letter)
	}
	if spec.TotalSites < spec.GlobalSites {
		return nil, fmt.Errorf("anycastnet: letter %s total %d < global %d",
			spec.Letter, spec.TotalSites, spec.GlobalSites)
	}
	regions := g.HeaviestRegions()
	nShared := int(spec.SharedHostFraction * float64(spec.GlobalSites))
	var sharedUps []topology.ASN

	sites := make([]bgp.Site, 0, spec.TotalSites)
	for i := 0; i < spec.GlobalSites; i++ {
		r := regions[i%len(regions)]
		loc := geo.Jitter(r.Center, 60, rng.Float64(), rng.Float64())
		site := bgp.Site{ID: i, Loc: loc, Global: true}
		switch {
		case i >= nShared:
			site.Host = g.AddHostAS(fmt.Sprintf("root-%s-site-%d", spec.Letter, i),
				[]geo.Coord{loc}, NearbyUpstreams(g, loc, rng), spec.Openness).ASN
		case i == 0:
			// The partner's upstreams are drawn at its first site; the
			// partner joins g once all of its sites are placed.
			sharedUps = NearbyUpstreams(g, loc, rng)
		}
		sites = append(sites, site)
		if i == nShared-1 {
			presence := make([]geo.Coord, nShared)
			for k := range presence {
				presence[k] = sites[k].Loc
			}
			host := g.AddHostAS(fmt.Sprintf("root-%s-partner", spec.Letter),
				presence, sharedUps, clamp01(spec.Openness*1.3)).ASN
			for k := range presence {
				sites[k].Host = host
			}
		}
	}
	// Local sites: volunteer hosts at random population-weighted regions,
	// announcement scoped to their neighborhoods.
	for i := spec.GlobalSites; i < spec.TotalSites; i++ {
		r := regions[rng.Intn(len(regions))]
		loc := geo.Jitter(r.Center, 120, rng.Float64(), rng.Float64())
		h := g.AddHostAS(fmt.Sprintf("root-%s-local-%d", spec.Letter, i),
			[]geo.Coord{loc}, NearbyUpstreams(g, loc, rng), spec.Openness*0.5)
		sites = append(sites, bgp.Site{ID: i, Loc: loc, Host: h.ASN, Global: false})
	}
	return sites, nil
}

// NewDeployment builds the deployment of sites on g: a root letter's
// sites from AddLetterSites, or a CDN ring's on the CDN's network. Route
// resolution reads g lazily, so g must not change while the deployment is
// in use.
func NewDeployment(g *topology.Graph, name string, sites []bgp.Site) (*Deployment, error) {
	res, err := bgp.NewResolver(g, sites)
	if err != nil {
		return nil, fmt.Errorf("anycastnet: %s: %w", name, err)
	}
	return newDeployment(name, sites, res), nil
}

// NearbyUpstreams picks the provider mix AddLetterSites gives site hosts:
// 1-2 transits with presence near loc plus one tier-1, mirroring how site
// hosts buy local transit. What-if scenario mutations that add sites to a
// built deployment call it too.
func NearbyUpstreams(g *topology.Graph, loc geo.Coord, rng *rand.Rand) []topology.ASN {
	ups := g.NearestTransits(geo.Prepare(loc), 1+rng.Intn(2))
	t1s := g.Tier1s()
	return append(ups, t1s[rng.Intn(len(t1s))])
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
