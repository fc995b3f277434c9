package ditl

import "anycastctx/internal/bgp"

// RouteTable exposes the campaign's deduplicated route table, its base
// RTTs and every cell's index into it (li*NumRecursives()+ri) to the
// external reference test.
func (c *Campaign) RouteTable() ([]bgp.Route, []float64, []uint32) {
	return c.routes, c.routeRTT, c.routeIdx
}
