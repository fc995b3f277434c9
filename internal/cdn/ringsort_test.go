package cdn

import (
	"context"
	"math/rand"
	"testing"

	"anycastctx/internal/geo"
	"anycastctx/internal/latency"
	"anycastctx/internal/topology"
)

// buildWithRings builds a fresh graph (AddNetwork adds the CDN AS and its
// peering) and a CDN with the given ring specs.
func buildWithRings(t *testing.T, rings []RingSpec) *CDN {
	t.Helper()
	regions := geo.GenerateRegions(geo.PaperRegionCounts, rand.New(rand.NewSource(42)))
	g, err := topology.New(topology.Config{Seed: 21, NumTier1: 6, NumTransit: 40, NumEyeball: 200}, regions)
	if err != nil {
		t.Fatal(err)
	}
	as, err := AddNetwork(g, Config{Rings: rings}, 7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Build(context.Background(), g, as, latency.DefaultModel(), Config{Rings: rings})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDuplicateSizeRingOrder is the regression test for the unstable
// ring sort: two rings of equal size must come out in name order no
// matter how the caller ordered the specs. Before the stable sort +
// name tie-break, sort.Slice could emit either order, and with it a
// different construction order and different stdout between runs.
func TestDuplicateSizeRingOrder(t *testing.T) {
	orders := [][]RingSpec{
		{{Name: "dupB", Size: 20}, {Name: "dupA", Size: 20}, {Name: "big", Size: 40}},
		{{Name: "dupA", Size: 20}, {Name: "big", Size: 40}, {Name: "dupB", Size: 20}},
		{{Name: "big", Size: 40}, {Name: "dupB", Size: 20}, {Name: "dupA", Size: 20}},
	}
	want := []string{"dupA", "dupB", "big"}
	var first *CDN
	for oi, specs := range orders {
		c := buildWithRings(t, specs)
		if len(c.Rings) != len(want) {
			t.Fatalf("order %d: %d rings, want %d", oi, len(c.Rings), len(want))
		}
		for i, r := range c.Rings {
			if r.Name != want[i] {
				t.Fatalf("order %d: ring %d is %s, want %s", oi, i, r.Name, want[i])
			}
		}
		if first == nil {
			first = c
			continue
		}
		// Same specs in any order → identical front-end placement.
		for i, r := range c.Rings {
			for k, loc := range r.SiteLocs {
				if first.Rings[i].SiteLocs[k] != loc {
					t.Fatalf("order %d: ring %s site %d placed at %v, first build had %v",
						oi, r.Name, k, loc, first.Rings[i].SiteLocs[k])
				}
			}
		}
	}
}

// TestRingSortLeavesCallerSlice verifies Build sorts a copy: the
// caller's spec slice must come back in its original order.
func TestRingSortLeavesCallerSlice(t *testing.T) {
	specs := []RingSpec{{Name: "z", Size: 30}, {Name: "a", Size: 10}}
	buildWithRings(t, specs)
	if specs[0].Name != "z" || specs[1].Name != "a" {
		t.Fatalf("caller slice reordered: %+v", specs)
	}
}
