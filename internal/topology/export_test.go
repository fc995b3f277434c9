package topology

import "anycastctx/internal/geo"

// TransitsNear exposes transitsNear to the oracle tests in
// rank_test.go, which import anycastnet and so live in package
// topology_test.
func (g *Graph) TransitsNear(regions []geo.Region) [][]ASN { return g.transitsNear(regions) }
