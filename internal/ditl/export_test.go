package ditl

import "anycastctx/internal/bgp"

// Entries exposes the table's routes and their base RTTs, in entry
// order, to the external reference test.
func (t *RouteTable) Entries() ([]bgp.Route, []float64) { return t.routes, t.rtt }

// CellEntry returns the table entry recursive ri reads on letter li,
// ^uint32(0) when the letter has no route from its AS.
func (t *RouteTable) CellEntry(li, ri int) uint32 { return t.ix.at(li, ri) }

// SiteDistanceColumns returns letter li's distance columns, filling them
// on first use.
func (t *RouteTable) SiteDistanceColumns(li int) (favorite, closest []float64) {
	d := t.distances(li)
	return d.favorite, d.closest
}
