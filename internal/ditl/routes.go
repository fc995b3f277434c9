package ditl

import (
	"context"
	"fmt"
	"math"

	"anycastctx/internal/anycastnet"
	"anycastctx/internal/bgp"
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
type RouteTable struct {
	names  []string       // letter names, in letter order
	srcs   []topology.ASN // source ASes, by position
	routes []bgp.Route
	rtt    []float64
	ix     routeIndex
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
	return buildRouteTable(ctx, letters, srcs, pos, func(li, s int) routeCell {
		rt, ok := letters[li].Route(srcs[s])
		if !ok {
			return unreachable
		}
		return routeCell{rt, model.BaseRTTMs(srcs[s], rt)}
	})
}

// buildRouteTable builds the table of letters over sources srcs. One
// parallel pass fills each ⟨letter li, source position s⟩ cell with
// cell(li, s); a serial pass then writes the reachable cells, in
// letter-major order with sources in position order, into route and RTT
// slices allocated at their exact size. pos maps each recursive to its
// source position.
func buildRouteTable(ctx context.Context, letters []*anycastnet.Deployment, srcs []topology.ASN, pos []uint32,
	cell func(li, s int) routeCell) (*RouteTable, error) {
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
		srcs:   srcs,
		routes: make([]bgp.Route, 0, reachable),
		rtt:    make([]float64, 0, reachable),
		ix:     routeIndex{entry: make([]uint32, len(cells)), pos: pos, nSrc: ns},
	}
	for _, l := range letters {
		t.names = append(t.names, l.Name)
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

// fits errors unless t was built for letters, by name and in order, and
// for a population of nRecs recursives.
func (t *RouteTable) fits(letters []*anycastnet.Deployment, nRecs int) error {
	if len(t.names) != len(letters) {
		return fmt.Errorf("ditl: route table has %d letters, campaign has %d", len(t.names), len(letters))
	}
	for i, l := range letters {
		if t.names[i] != l.Name {
			return fmt.Errorf("ditl: route table letter %d is %q, campaign has %q", i, t.names[i], l.Name)
		}
	}
	if len(t.ix.pos) != nRecs {
		return fmt.Errorf("ditl: route table has %d recursives, campaign has %d", len(t.ix.pos), nRecs)
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
