package ditl

import (
	"context"
	"fmt"
	"math"
	"sync"

	"anycastctx/internal/anycastnet"
	"anycastctx/internal/bgp"
	"anycastctx/internal/geo"
	"anycastctx/internal/latency"
	"anycastctx/internal/obs"
	"anycastctx/internal/par"
	"anycastctx/internal/topology"
	"anycastctx/internal/users"
)

// RouteTable is the BGP outcome of every ⟨root letter, recursive source
// AS⟩ pair: each reachable route once, its base RTT, and a dense index
// from every ⟨letter, source position⟩ cell to its entry. Sources are
// the population's recursive ASes in first-appearance order
// (UniqueSources), and every recursive reads its AS's entries. A table
// never changes once built: campaigns assembled on it read it in place.
//
// The table also keeps the letters and population it was built for, and
// per letter one pair of site-distance columns over the recursives,
// filled on first use (Campaign.SiteDistances). The columns are derived
// data: they are never encoded.
type RouteTable struct {
	letters []*anycastnet.Deployment
	pop     *users.Population
	srcs    []topology.ASN // source ASes, by position
	routes  []bgp.Route
	rtt     []float64
	ix      routeIndex
	dist    []*siteDistances // by letter
}

// siteDistances is one letter's pair of distance columns, indexed by
// recursive: the great-circle km from each recursive to the site of the
// route the table holds for it, and to the letter's closest global
// site. Both are NaN where the letter has no route from the recursive's
// AS. A rebase that copies the letter shares the pair with its base.
type siteDistances struct {
	once              sync.Once
	favorite, closest []float64
}

// newSiteDistances returns n unfilled column pairs.
func newSiteDistances(n int) []*siteDistances {
	out := make([]*siteDistances, n)
	for i := range out {
		out[i] = new(siteDistances)
	}
	return out
}

// distances returns letter li's distance columns, filling them on first
// use in one parallel pass over the recursives. The pass prices each
// value as Eq. 1 and Eq. 2 would on the spot (a prepared recursive,
// Point.DistanceKm, ClosestGlobalSiteTo), so a read equals that bit for
// bit.
func (t *RouteTable) distances(li int) *siteDistances {
	d := t.dist[li]
	d.once.Do(func() {
		letter, n := t.letters[li], len(t.ix.pos)
		d.favorite = make([]float64, n)
		d.closest = make([]float64, n)
		par.Do(n, func(lo, hi int) {
			for ri := lo; ri < hi; ri++ {
				rix := t.ix.at(li, ri)
				if rix == noRoute {
					d.favorite[ri], d.closest[ri] = math.NaN(), math.NaN()
					continue
				}
				q := geo.Prepare(t.pop.Recursives[ri].Loc)
				d.favorite[ri] = q.DistanceKm(letter.SitePoint(t.routes[rix].SiteID))
				_, d.closest[ri] = letter.ClosestGlobalSiteTo(q)
			}
		})
	})
	return d
}

// routeIndex is the dense index into a route table: entry holds, per
// ⟨letter, source position⟩ (letter-major), the table entry of the
// letter's route from that source or noRoute, and pos maps each
// recursive to its source position.
type routeIndex struct {
	entry []uint32
	pos   []uint32
	nSrc  int
}

// at returns the route-table entry of recursive ri on letter li.
func (x routeIndex) at(li, ri int) uint32 { return x.entry[li*x.nSrc+int(x.pos[ri])] }

// routeCell is one ⟨letter, source⟩ cell of the route-table pass: the
// letter's route from the source and its base RTT, which is +Inf when
// the letter has no route from the source.
type routeCell struct {
	rt  bgp.Route
	rtt float64
}

// unreachable is the route-table cell of a letter with no route from a
// source.
var unreachable = routeCell{rtt: math.Inf(1)}

// BuildRouteTable resolves every letter's route from every source AS of
// pop's recursives, through the letters' route caches, and prices each
// with model. ctx carries the caller's span: a traced build records
// "ditl.route_tables" with its "ditl.route_tables.shard" workers.
func BuildRouteTable(ctx context.Context, letters []*anycastnet.Deployment, pop *users.Population,
	model *latency.Model) (*RouteTable, error) {
	if len(letters) == 0 {
		return nil, fmt.Errorf("ditl: no letters")
	}
	srcs, pos := sourcePositions(pop)
	return buildRouteTable(ctx, letters, pop, srcs, pos, func(li, s int) routeCell {
		rt, ok := letters[li].Route(srcs[s])
		if !ok {
			return unreachable
		}
		return routeCell{rt, model.BaseRTTMs(srcs[s], rt)}
	})
}

// buildRouteTable builds the table of letters over pop's sources srcs.
// One parallel pass fills each ⟨letter li, source position s⟩ cell with
// cell(li, s); a serial pass then writes the reachable cells, in
// letter-major order with sources in position order, into route and RTT
// slices allocated at their exact size. pos maps each recursive to its
// source position.
func buildRouteTable(ctx context.Context, letters []*anycastnet.Deployment, pop *users.Population,
	srcs []topology.ASN, pos []uint32, cell func(li, s int) routeCell) (*RouteTable, error) {
	ctx, span := obs.StartSpanCtx(ctx, "ditl.route_tables")
	defer span.End()
	ns := len(srcs)
	cells := make([]routeCell, len(letters)*ns)
	par.DoCtx(ctx, len(cells), func(ctx context.Context, lo, hi int) {
		_, sp := obs.StartSpanCtx(ctx, "ditl.route_tables.shard")
		defer sp.End()
		for k := lo; k < hi; k++ {
			cells[k] = cell(k/ns, k%ns)
		}
	})

	reachable := 0
	for k := range cells {
		if !math.IsInf(cells[k].rtt, 1) {
			reachable++
		}
	}
	t := &RouteTable{
		letters: letters,
		pop:     pop,
		srcs:    srcs,
		routes:  make([]bgp.Route, 0, reachable),
		rtt:     make([]float64, 0, reachable),
		ix:      routeIndex{entry: make([]uint32, len(cells)), pos: pos, nSrc: ns},
		dist:    newSiteDistances(len(letters)),
	}
	for k := range cells {
		if math.IsInf(cells[k].rtt, 1) {
			t.ix.entry[k] = noRoute
			continue
		}
		ix, err := routeTableIndex(len(t.routes))
		if err != nil {
			return nil, err
		}
		t.ix.entry[k] = ix
		t.routes = append(t.routes, cells[k].rt)
		t.rtt = append(t.rtt, cells[k].rtt)
	}
	return t, nil
}

// fits errors unless t was built for these very deployments, in order,
// and for pop: a campaign reads its site distances from the table.
func (t *RouteTable) fits(letters []*anycastnet.Deployment, pop *users.Population) error {
	if len(t.letters) != len(letters) {
		return fmt.Errorf("ditl: route table has %d letters, campaign has %d", len(t.letters), len(letters))
	}
	for i, l := range letters {
		if t.letters[i] != l {
			return fmt.Errorf("ditl: route table letter %d is not the campaign's %q deployment", i, l.Name)
		}
	}
	if len(t.ix.pos) != len(pop.Recursives) {
		return fmt.Errorf("ditl: route table has %d recursives, campaign has %d", len(t.ix.pos), len(pop.Recursives))
	}
	if t.pop != pop {
		return fmt.Errorf("ditl: route table was built for another population")
	}
	return nil
}

// routeTableIndex validates table length n before narrowing it to the
// next entry's uint32 index: ^uint32(0) is reserved as the noRoute
// sentinel, so a table of that length would make its next entry
// indistinguishable from "unreachable", and one more would wrap to index
// 0 — either way every cell referencing the entry is silently corrupted.
func routeTableIndex(n int) (uint32, error) {
	if uint64(n) >= uint64(noRoute) {
		return 0, fmt.Errorf("ditl: route table full: entry %d would collide with the noRoute sentinel %d", n, noRoute)
	}
	return uint32(n), nil
}

// UniqueSources lists the distinct ASes of pop's recursives in
// first-appearance order — the deterministic ordering route tables key
// on.
func UniqueSources(pop *users.Population) []topology.ASN {
	srcs, _ := sourcePositions(pop)
	return srcs
}

// sourcePositions returns UniqueSources(pop) together with each
// recursive's position in it.
func sourcePositions(pop *users.Population) ([]topology.ASN, []uint32) {
	srcs := make([]topology.ASN, 0, len(pop.Recursives))
	pos := make([]uint32, len(pop.Recursives))
	seen := make(map[topology.ASN]uint32, len(pop.Recursives))
	for ri := range pop.Recursives {
		asn := pop.Recursives[ri].ASN
		s, ok := seen[asn]
		if !ok {
			s = uint32(len(srcs))
			seen[asn] = s
			srcs = append(srcs, asn)
		}
		pos[ri] = s
	}
	return srcs, pos
}
