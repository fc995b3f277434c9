// Package topology models the AS-level Internet the two anycast systems
// live on: a tier-1 clique, regional transit providers, eyeball (access)
// ASes placed by user population, and the host ASes that anycast sites and
// the CDN attach to.
//
// The graph deliberately encodes the two mechanisms the paper identifies
// (§7.1): (1) BGP prefers shorter AS paths even when a longer path leads to
// a geographically closer anycast site, and (2) direct peering aligns
// early-exit routing with the nearest site. Packages bgp and anycastnet
// compute catchments on top of this graph.
package topology

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"anycastctx/internal/geo"
)

// ASN is an autonomous system number.
type ASN int32

// Class categorizes an AS's role in the hierarchy.
type Class uint8

// AS classes.
const (
	ClassTier1   Class = iota // global backbone, peers with every other tier-1
	ClassTransit              // regional transit provider
	ClassEyeball              // access network originating users
	ClassHost                 // hosts one or more anycast sites
	ClassCDN                  // the CDN's own network
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassTier1:
		return "tier1"
	case ClassTransit:
		return "transit"
	case ClassEyeball:
		return "eyeball"
	case ClassHost:
		return "host"
	case ClassCDN:
		return "cdn"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// AS is one autonomous system.
type AS struct {
	ASN   ASN
	Class Class
	Name  string
	// Org identifies the owning organization; siblings share an Org
	// (CAIDA AS-to-organization mapping, used by Fig 6a's sibling merge).
	Org int32
	// Region is the index of the AS's home region; -1 for global networks.
	Region int
	// Loc is the AS's home location (for tier-1s, the headquarters; use
	// Presence for routing decisions).
	Loc geo.Coord
	// Presence lists the locations where the AS has points of presence.
	// Always non-empty; for single-homed ASes it is just {Loc}.
	Presence []geo.Coord
	// Providers are the ASes this AS buys transit from (valley-free "up").
	Providers []ASN
	// PeeringRichness in [0,1] scales how readily the AS forms
	// settlement-free peering (CDNs and IXP-dense networks peer widely).
	PeeringRichness float64
	// UserWeight is the share of the world's Internet users behind this AS
	// (eyeballs only; 0 elsewhere). Sums to 1 over all eyeballs.
	UserWeight float64

	// loc is Loc prepared for distance work, and pidx the nearest-point
	// index over Presence, both built when the AS is added to a graph.
	// Single-presence ASes, most of the graph, have no index: their one
	// presence point is Loc.
	loc  geo.Point
	pidx *geo.Index
	// peers lists the ASes this AS has an explicit peering edge with, in
	// the order the edges were recorded.
	peers []ASN
}

// NearestPresence returns the AS presence point closest to c and its
// distance in km, first-wins on ties (geo.Index).
func (a *AS) NearestPresence(c geo.Coord) (geo.Coord, float64) {
	if a.pidx == nil {
		return a.Presence[0], geo.DistanceKm(c, a.Presence[0])
	}
	q := geo.Prepare(c)
	p := a.NearestPoint(q)
	return p.Coord, q.DistanceKm(p)
}

// Point returns Loc prepared for distance work.
func (a *AS) Point() geo.Point { return a.loc }

// Peers returns the ASes a has an explicit peering edge with, in the
// order the edges were recorded. The slice is shared and read-only.
func (a *AS) Peers() []ASN { return a.peers }

// NearestPoint returns the prepared presence point closest to q without
// pricing its distance, first-wins on ties (geo.Index). Every BGP route
// resolution calls it per candidate AS.
func (a *AS) NearestPoint(q geo.Point) geo.Point {
	if a.pidx == nil {
		return a.loc
	}
	i, _ := a.pidx.Argmax(q)
	return a.pidx.Point(i)
}

// Config controls graph generation.
type Config struct {
	// Seed drives all randomness in generation and the deterministic
	// peering hash.
	Seed int64
	// NumTier1 is the number of tier-1 backbones (default 12).
	NumTier1 int
	// NumTransit is the number of regional transit providers (default 150).
	NumTransit int
	// NumEyeball is the number of access networks (default 4500).
	NumEyeball int
}

// tier1PresenceMin and tier1PresenceMax bound how many metros each
// tier-1 covers.
const (
	tier1PresenceMin = 18
	tier1PresenceMax = 40
)

// DefaultConfig returns the paper-scale configuration.
func DefaultConfig() Config {
	return Config{
		Seed:       1,
		NumTier1:   12,
		NumTransit: 150,
		NumEyeball: 4500,
	}
}

// scaled shrinks counts for small test worlds.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.NumTier1 == 0 {
		c.NumTier1 = d.NumTier1
	}
	if c.NumTransit == 0 {
		c.NumTransit = d.NumTransit
	}
	if c.NumEyeball == 0 {
		c.NumEyeball = d.NumEyeball
	}
	return c
}

// Graph is the AS-level topology. Construct with New; add host/CDN ASes
// with AddHostAS / AddCDNAS and explicit edges with Peer. Reads are safe
// for concurrent use once construction is complete.
type Graph struct {
	Regions []geo.Region

	// ases holds every AS at index ASN − firstASN: add numbers ASes
	// densely in insertion order, so a lookup is a bounds check and an
	// index.
	ases  []*AS
	order []ASN // insertion order, for deterministic iteration

	tier1s   []ASN
	transits []ASN
	eyeballs []ASN

	peerSalt uint64
	rng      *rand.Rand

	// regionIdx indexes the region centers for AddHostAS's home-region
	// lookup, and heaviest holds the regions by population weight
	// (HeaviestRegions). Regions never change after New, so clones share
	// both, read-only.
	regionIdx *geo.Index
	heaviest  []geo.Region

	// transitIdx holds every transit's presence points, transit by
	// transit: transit k of transits has positions transitOffs[k] to
	// transitOffs[k+1]-1. The transit rankers (transitsNear,
	// NearestTransits) answer a query with one GroupArgmax over it.
	// AddHostAS and AddCDNAS never add a transit, so clones share it,
	// read-only.
	transitIdx  *geo.Index
	transitOffs []int
}

// New generates the hierarchy: tier-1 clique, regional transits (each a
// customer of 2 tier-1s), and eyeballs placed proportionally to region
// population (each a customer of 1–3 transits).
func New(cfg Config, regions []geo.Region) (*Graph, error) {
	cfg = cfg.withDefaults()
	if len(regions) == 0 {
		return nil, fmt.Errorf("topology: no regions")
	}
	g := &Graph{
		Regions:  regions,
		peerSalt: uint64(cfg.Seed)*0x9e3779b97f4a7c15 + 0x1234,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
	}
	centers := make([]geo.Coord, len(regions))
	for i, r := range regions {
		centers[i] = r.Center
	}
	g.regionIdx = geo.NewIndex(centers)
	g.heaviest = slices.Clone(regions)
	slices.SortStableFunc(g.heaviest, func(a, b geo.Region) int {
		if c := cmp.Compare(b.PopWeight, a.PopWeight); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})

	anchorList := geo.Anchors()

	// Tier-1 backbones: global presence across many metros, full peer mesh.
	for i := 0; i < cfg.NumTier1; i++ {
		n := tier1PresenceMin + g.rng.Intn(tier1PresenceMax-tier1PresenceMin)
		if n > len(anchorList) {
			n = len(anchorList)
		}
		presence := make([]geo.Coord, 0, n)
		perm := g.rng.Perm(len(anchorList))
		// Always include the top metros so every tier-1 is present where
		// users concentrate, then fill randomly.
		seen := map[int]bool{}
		for k := 0; k < 6 && k < len(anchorList); k++ {
			presence = append(presence, anchorList[k].Coord)
			seen[k] = true
		}
		for _, pi := range perm {
			if len(presence) >= n {
				break
			}
			if seen[pi] {
				continue
			}
			presence = append(presence, anchorList[pi].Coord)
			seen[pi] = true
		}
		as := &AS{
			Class:           ClassTier1,
			Name:            fmt.Sprintf("tier1-%d", i),
			Org:             int32(i),
			Region:          -1,
			Loc:             presence[0],
			Presence:        presence,
			PeeringRichness: 0.95,
		}
		g.add(as)
		g.tier1s = append(g.tier1s, as.ASN)
	}
	// Tier-1 full mesh. Give the first two tier-1s a sibling relationship
	// (same org) so the sibling-merge path in the analysis has real work.
	for i, a := range g.tier1s {
		for _, b := range g.tier1s[i+1:] {
			g.Peer(a, b)
		}
	}
	if len(g.tier1s) >= 2 {
		g.AS(g.tier1s[1]).Org = g.AS(g.tier1s[0]).Org
	}

	// Regional transits: placed at regions weighted by population, customer
	// of 2 tier-1s, some peering among nearby transits.
	regionPicker := newWeightedPicker(regions)
	orgBase := int32(1000)
	for i := 0; i < cfg.NumTransit; i++ {
		ri := regionPicker.pick(g.rng)
		r := regions[ri]
		// Presence: home metro plus up to 3 nearby regions.
		presence := []geo.Coord{r.Center}
		for k := 0; k < 3; k++ {
			presence = append(presence, geo.Jitter(r.Center, 900, g.rng.Float64(), g.rng.Float64()))
		}
		t1a := g.tier1s[g.rng.Intn(len(g.tier1s))]
		t1b := g.tier1s[g.rng.Intn(len(g.tier1s))]
		providers := []ASN{t1a}
		if t1b != t1a {
			providers = append(providers, t1b)
		}
		as := &AS{
			Class:           ClassTransit,
			Name:            fmt.Sprintf("transit-%s-%d", r.Name, i),
			Org:             orgBase + int32(i),
			Region:          ri,
			Loc:             r.Center,
			Presence:        presence,
			Providers:       providers,
			PeeringRichness: 0.3 + 0.5*g.rng.Float64(),
		}
		g.add(as)
		g.transits = append(g.transits, as.ASN)
	}
	g.indexTransits()

	// Eyeballs: count per region proportional to population weight; each
	// buys transit from 1-3 transits (preferring nearby ones), with a small
	// chance of a direct tier-1 upstream.
	orgBase = 10000
	transitByDist := g.transitsNear(regions)
	for i := 0; i < cfg.NumEyeball; i++ {
		ri := regionPicker.pick(g.rng)
		r := regions[ri]
		loc := geo.Jitter(r.Center, 120, g.rng.Float64(), g.rng.Float64())
		nearby := transitByDist[ri]
		nProv := 1 + g.rng.Intn(3)
		if nProv > len(nearby) {
			nProv = len(nearby)
		}
		var providers []ASN
		for k := 0; k < nProv; k++ {
			// Mostly the closest transits, occasionally a farther one.
			idx := k
			if g.rng.Float64() < 0.2 && len(nearby) > nProv {
				idx = nProv + g.rng.Intn(len(nearby)-nProv)
			}
			if idx < len(nearby) {
				providers = append(providers, nearby[idx])
			}
		}
		if len(providers) == 0 || g.rng.Float64() < 0.05 {
			providers = append(providers, g.tier1s[g.rng.Intn(len(g.tier1s))])
		}
		// Peering richness is lognormal-ish: most eyeballs peer a little,
		// IXP-dense ones peer a lot.
		rich := math.Min(1, 0.1+0.4*g.rng.ExpFloat64()*0.5)
		as := &AS{
			Class:           ClassEyeball,
			Name:            fmt.Sprintf("eyeball-%s-%d", r.Name, i),
			Org:             orgBase + int32(i),
			Region:          ri,
			Loc:             loc,
			Presence:        []geo.Coord{loc},
			Providers:       dedupASNs(providers),
			PeeringRichness: rich,
		}
		g.add(as)
		g.eyeballs = append(g.eyeballs, as.ASN)
	}
	g.assignUserWeights()
	return g, nil
}

// indexTransits builds transitIdx and transitOffs from the transits'
// presence points.
func (g *Graph) indexTransits() {
	offs := make([]int, 1, len(g.transits)+1)
	var pts []geo.Coord
	for _, tn := range g.transits {
		pts = append(pts, g.AS(tn).Presence...)
		offs = append(offs, len(pts))
	}
	g.transitIdx, g.transitOffs = geo.NewIndex(pts), offs
}

// transitsNear returns, per region index, transits sorted by the
// distance of their nearest presence point from the region center, ASN
// ascending on ties.
func (g *Graph) transitsNear(regions []geo.Region) [][]ASN {
	// The sort moves small keys: a transit, the dot product of its
	// nearest presence point with the center, and that point's position
	// in transitIdx, which only a guard-band fallback reads.
	type cand struct {
		dot float64
		pos int32
		asn ASN
	}
	idx, n := g.transitIdx, len(g.transits)
	pos, dots := make([]int, n), make([]float64, n)
	cands := make([]cand, n)
	out := make([][]ASN, len(regions))
	for ri, r := range regions {
		center := geo.Prepare(r.Center)
		idx.GroupArgmax(center, g.transitOffs, pos, dots)
		for k, asn := range g.transits {
			cands[k] = cand{dots[k], int32(pos[k]), asn}
		}
		slices.SortFunc(cands, func(a, b cand) int {
			if c := idx.CompareDots(&center, int(a.pos), a.dot, int(b.pos), b.dot); c != 0 {
				return c
			}
			return cmp.Compare(a.asn, b.asn)
		})
		asns := make([]ASN, n)
		for i, c := range cands {
			asns[i] = c.asn
		}
		out[ri] = asns
	}
	return out
}

// NearestTransits returns the n transits whose nearest presence points
// lie nearest q, nearest first, or every transit if there are fewer. It
// selects them from the transits in Transits order: each pick is the
// first strictly nearest transit not yet picked, swapped with the one in
// its place, so equally near transits keep the order the swaps leave.
func (g *Graph) NearestTransits(q geo.Point, n int) []ASN {
	// pos[i] and dots[i] describe the transit in place i: the position
	// in transitIdx of its presence point nearest q, which also names
	// the transit, and that point's dot product with q.
	k := len(g.transits)
	pos, dots := make([]int, k), make([]float64, k)
	g.transitIdx.GroupArgmax(q, g.transitOffs, pos, dots)
	n = max(0, min(n, k))
	out := make([]ASN, n, n+1) // a spare slot: site hosts add a tier-1
	for i := range out {
		m := i
		for j := i + 1; j < k; j++ {
			if g.transitIdx.CompareDots(&q, pos[j], dots[j], pos[m], dots[m]) < 0 {
				m = j
			}
		}
		pos[i], pos[m] = pos[m], pos[i]
		dots[i], dots[m] = dots[m], dots[i]
		// The transit's points are positions transitOffs[t] to
		// transitOffs[t+1]-1.
		t, _ := slices.BinarySearch(g.transitOffs, pos[i]+1)
		out[i] = g.transits[t-1]
	}
	return out
}

// HeaviestRegions returns Regions sorted by population weight, heaviest
// first and ID ascending on ties: the order AddLetterSites places global
// sites in and the CDN its PoPs. New sorts them once; the slice is
// shared with clones and must not be modified.
func (g *Graph) HeaviestRegions() []geo.Region { return g.heaviest }

// assignUserWeights splits each region's population weight across its
// eyeballs with a heavy-tailed share (a few large ISPs per region).
func (g *Graph) assignUserWeights() {
	byRegion := map[int][]*AS{}
	for _, asn := range g.eyeballs {
		as := g.AS(asn)
		byRegion[as.Region] = append(byRegion[as.Region], as)
	}
	var total float64
	for ri := range g.Regions {
		list := byRegion[ri]
		if len(list) == 0 {
			continue
		}
		w := g.Regions[ri].PopWeight
		// Zipf-ish shares.
		shares := make([]float64, len(list))
		var sum float64
		for i := range shares {
			shares[i] = 1 / float64(i+1)
			sum += shares[i]
		}
		for i, as := range list {
			as.UserWeight = w * shares[i] / sum
			total += as.UserWeight
		}
	}
	if total == 0 {
		return
	}
	for _, asn := range g.eyeballs {
		g.AS(asn).UserWeight /= total
	}
}

// firstASN is the number of the first AS a graph holds.
const firstASN = 100

// add registers as under the next free ASN, which it assigns, prepares
// its Loc, and indexes its presence when it has more than one point.
// Presence must not change afterwards.
func (g *Graph) add(as *AS) {
	as.ASN = firstASN + ASN(len(g.ases))
	as.loc = geo.Prepare(as.Loc)
	if len(as.Presence) > 1 {
		as.pidx = geo.NewIndex(as.Presence)
	}
	g.ases = append(g.ases, as)
	g.order = append(g.order, as.ASN)
}

// dedupASNs drops repeated ASNs from in, in place, keeping the first of
// each. Provider lists hold a few entries, so scanning the kept prefix
// beats building a set.
func dedupASNs(in []ASN) []ASN {
	out := in[:0]
	for _, a := range in {
		if !slices.Contains(out, a) {
			out = append(out, a)
		}
	}
	return out
}

// AS returns the AS with the given number, or nil.
func (g *Graph) AS(n ASN) *AS {
	if i := uint(int(n) - firstASN); i < uint(len(g.ases)) {
		return g.ases[i]
	}
	return nil
}

// Slot returns n's dense position in g, ASN − firstASN: ASes are numbered
// in creation order, so All()[Slot(n)] == n when g holds n, and a clone
// keeps every slot. Callers index their own per-AS tables with it, and
// must bounds-check the result, which is out of range for an ASN g lacks.
func (g *Graph) Slot(n ASN) int { return int(n) - firstASN }

// Tier1s returns the tier-1 ASNs in creation order.
func (g *Graph) Tier1s() []ASN { return g.tier1s }

// Transits returns the regional transit ASNs.
func (g *Graph) Transits() []ASN { return g.transits }

// Eyeballs returns the eyeball ASNs.
func (g *Graph) Eyeballs() []ASN { return g.eyeballs }

// All returns every ASN in deterministic creation order.
func (g *Graph) All() []ASN { return g.order }

// Len returns the number of ASes.
func (g *Graph) Len() int { return len(g.order) }

// AddHostAS creates a host AS present at the given points (home: the
// first, home region: the region center nearest to it) with the given
// upstream providers and peering richness, registering it in the graph.
// The AS keeps the presence slice, which must not change afterwards.
func (g *Graph) AddHostAS(name string, presence []geo.Coord, providers []ASN, richness float64) *AS {
	loc := presence[0]
	ri, _ := g.regionIdx.Argmax(geo.Prepare(loc))
	as := &AS{
		Class:           ClassHost,
		Name:            name,
		Org:             20000 + int32(len(g.order)),
		Region:          ri,
		Loc:             loc,
		Presence:        presence,
		Providers:       dedupASNs(providers),
		PeeringRichness: richness,
	}
	g.add(as)
	return as
}

// AddCDNAS creates the CDN's network with presence at the given PoP
// locations, peered richly. The CDN also buys from two tier-1s so
// non-peered clients can reach it.
func (g *Graph) AddCDNAS(name string, pops []geo.Coord) *AS {
	providers := []ASN{}
	if len(g.tier1s) > 0 {
		providers = append(providers, g.tier1s[0])
	}
	if len(g.tier1s) > 1 {
		providers = append(providers, g.tier1s[1])
	}
	as := &AS{
		Class:           ClassCDN,
		Name:            name,
		Org:             30000,
		Region:          -1,
		Loc:             pops[0],
		Presence:        append([]geo.Coord(nil), pops...),
		Providers:       providers,
		PeeringRichness: 0.92,
	}
	g.add(as)
	return as
}

// Clone returns a copy of g for overlay mutation: callers may add ASes and
// peering edges (what-if scenarios) without disturbing the original. Each
// AS is copied but shares its slices with g; the copy's are capped at
// their length, so an append on the clone reallocates and one on g writes
// past the clone's end. Deterministic generation state carries over —
// peerSalt and the AS count, which numbers the next AS — so identical
// mutation sequences applied to identical clones produce identical
// graphs. The construction rng does not carry over: post-construction
// mutators (AddHostAS, AddCDNAS, Peer) draw no randomness, and New is
// never re-run on a clone. The region order and the transit index, which
// those mutators never change, are shared read-only.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		Regions:     g.Regions,
		ases:        make([]*AS, len(g.ases)),
		order:       append([]ASN(nil), g.order...),
		tier1s:      append([]ASN(nil), g.tier1s...),
		transits:    append([]ASN(nil), g.transits...),
		eyeballs:    append([]ASN(nil), g.eyeballs...),
		peerSalt:    g.peerSalt,
		regionIdx:   g.regionIdx,
		heaviest:    g.heaviest,
		transitIdx:  g.transitIdx,
		transitOffs: g.transitOffs,
	}
	copies := make([]AS, len(g.ases))
	for i, a := range g.ases {
		copies[i] = *a
		a = &copies[i]
		a.Presence = a.Presence[:len(a.Presence):len(a.Presence)]
		a.Providers = a.Providers[:len(a.Providers):len(a.Providers)]
		a.peers = a.peers[:len(a.peers):len(a.peers)]
		c.ases[i] = a
	}
	return c
}

// Peer records an explicit settlement-free peering between a and b. A
// self-edge, an edge to an AS not in g, or an edge already recorded adds
// nothing.
func (g *Graph) Peer(a, b ASN) {
	if a == b || g.HasExplicitPeering(a, b) {
		return
	}
	A, B := g.AS(a), g.AS(b)
	if A == nil || B == nil {
		return
	}
	A.peers = append(A.peers, b)
	B.peers = append(B.peers, a)
}

// HasExplicitPeering reports whether a and b have an explicit peering edge.
func (g *Graph) HasExplicitPeering(a, b ASN) bool {
	A, B := g.AS(a), g.AS(b)
	return A != nil && B != nil && explicitPeers(A, B)
}

// explicitPeers reports whether A and B have an explicit peering edge,
// scanning the shorter of the two adjacency lists: an eyeball's holds at
// most a few edges, the CDN's one per peered eyeball.
func explicitPeers(A, B *AS) bool {
	if len(A.peers) > len(B.peers) {
		A, B = B, A
	}
	for _, p := range A.peers {
		if p == B.ASN {
			return true
		}
	}
	return false
}

// Peered reports whether ASes a and b interconnect settlement-free. In
// addition to explicit edges, pairs peer "implicitly" with a deterministic
// probability driven by both ASes' peering richness and geographic
// co-presence — this is how the CDN's wide peering and per-letter host
// openness are expressed without materializing millions of edges.
func (g *Graph) Peered(a, b ASN) bool {
	A, B := g.AS(a), g.AS(b)
	return A != nil && B != nil && g.peered(A, B)
}

// peered is Peered for two ASes of g.
func (g *Graph) peered(A, B *AS) bool {
	if A == B {
		return false
	}
	if explicitPeers(A, B) {
		return true
	}
	// Tier-1s do not peer with small networks implicitly.
	if A.Class == ClassTier1 || B.Class == ClassTier1 {
		return false
	}
	// implicitPeerProb only scales the richness product by a co-presence
	// factor ≤ 1, and an IEEE product with such a factor never exceeds the
	// value it scales, so a deviate at or above the product cannot peer:
	// skip the co-presence lookup.
	u := g.PairUnit(A.ASN, B.ASN)
	if u >= A.PeeringRichness*B.PeeringRichness {
		return false
	}
	return u < g.implicitPeerProb(A, B)
}

// Co-presence bands of implicitPeerProb: the distance from one AS's home
// to the other's nearest presence point.
var (
	bandLocal       = geo.NewRadius(500)
	bandRegional    = geo.NewRadius(1500)
	bandContinental = geo.NewRadius(3000)
)

// implicitPeerProb returns the probability that A and B peer.
func (g *Graph) implicitPeerProb(A, B *AS) float64 {
	p := A.PeeringRichness * B.PeeringRichness
	// Require rough geographic co-presence: peering happens at IXPs. Only
	// the band matters, so no distance is priced outside a guard band.
	home, near := A.loc, B.NearestPoint(A.loc)
	if A.Class != ClassEyeball && B.Class == ClassEyeball {
		home, near = B.loc, A.NearestPoint(B.loc)
	}
	switch {
	case home.Within(near, bandLocal):
		// fully local: no penalty
	case home.Within(near, bandRegional):
		p *= 0.6
	case home.Within(near, bandContinental):
		p *= 0.25
	default:
		p *= 0.02
	}
	return p
}

// PairUnit returns a deterministic uniform [0,1) deviate for the AS pair.
func (g *Graph) PairUnit(a, b ASN) float64 {
	if a > b {
		a, b = b, a
	}
	h := g.peerSalt
	h ^= uint64(uint32(a)) * 0xff51afd7ed558ccd
	h = (h << 31) | (h >> 33)
	h ^= uint64(uint32(b)) * 0xc4ceb9fe1a85ec53
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return float64(h%1_000_000) / 1_000_000
}

// Connected reports whether transit/tier-1 p has a direct BGP adjacency to
// h that yields h's routes: h is a customer of p, or p peers with h.
func (g *Graph) Connected(p, h ASN) bool {
	P, H := g.AS(p), g.AS(h)
	if H == nil {
		return false
	}
	for _, up := range H.Providers {
		if up == p {
			return true
		}
	}
	return P != nil && g.peered(P, H)
}

// weightedPicker draws region indices proportionally to population.
type weightedPicker struct {
	cum []float64
}

func newWeightedPicker(regions []geo.Region) *weightedPicker {
	cum := make([]float64, len(regions))
	var s float64
	for i, r := range regions {
		s += r.PopWeight
		cum[i] = s
	}
	return &weightedPicker{cum: cum}
}

func (w *weightedPicker) pick(rng *rand.Rand) int {
	if len(w.cum) == 0 {
		return 0
	}
	x := rng.Float64() * w.cum[len(w.cum)-1]
	i := sort.SearchFloat64s(w.cum, x)
	if i >= len(w.cum) {
		i = len(w.cum) - 1
	}
	return i
}
