package ditl_test

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"anycastctx/internal/anycastnet"
	"anycastctx/internal/bgp"
	"anycastctx/internal/ditl"
	"anycastctx/internal/latency"
	"anycastctx/internal/scenario"
	"anycastctx/internal/topology"
	"anycastctx/internal/users"
	"anycastctx/internal/world"
)

// routeTables is a campaign's route table in the form the reference
// builds it: entries in table order, and per letter the entry of each
// reachable source AS.
type routeTables struct {
	routes []bgp.Route
	rtts   []float64
	index  []map[topology.ASN]uint32
}

// referenceTables is the route-table pre-pass as Build and Rebase ran it
// before the one parallel pass: warm every letter's route cache over the
// campaign's sources, then walk letters and sources serially, append
// every reachable route with a freshly priced base RTT, and index each
// letter's entries by source AS.
func referenceTables(letters []*anycastnet.Deployment, pop *users.Population, model *latency.Model) routeTables {
	srcs := ditl.UniqueSources(pop)
	for _, l := range letters {
		l.WarmRoutesCtx(context.Background(), srcs)
	}
	ref := routeTables{index: make([]map[topology.ASN]uint32, len(letters))}
	for li, l := range letters {
		ref.index[li] = make(map[topology.ASN]uint32, len(srcs))
		for _, asn := range srcs {
			rt, ok := l.Route(asn)
			if !ok {
				continue
			}
			ref.index[li][asn] = uint32(len(ref.routes))
			ref.routes = append(ref.routes, rt)
			ref.rtts = append(ref.rtts, model.BaseRTTMs(asn, rt))
		}
	}
	return ref
}

// freshLetters rebuilds letters on g with empty route caches, so the
// reference resolves every route itself.
func freshLetters(t *testing.T, g *topology.Graph, letters []*anycastnet.Deployment) []*anycastnet.Deployment {
	t.Helper()
	out := make([]*anycastnet.Deployment, len(letters))
	for i, l := range letters {
		d, err := anycastnet.NewDeployment(g, l.Name, l.Sites)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = d
	}
	return out
}

// requireTables fails unless c's route table, its RTTs and every cell's
// entry equal ref bit for bit.
func requireTables(t *testing.T, c *ditl.Campaign, ref routeTables) {
	t.Helper()
	table := c.RouteTable()
	routes, rtts := table.Entries()
	if len(routes) != len(ref.routes) || len(rtts) != len(ref.rtts) {
		t.Fatalf("table has %d routes and %d RTTs, reference %d and %d", len(routes), len(rtts), len(ref.routes), len(ref.rtts))
	}
	if cap(routes) != len(routes) || cap(rtts) != len(rtts) {
		t.Errorf("table allocated for %d routes and %d RTTs, holds %d", cap(routes), cap(rtts), len(routes))
	}
	for i, want := range ref.routes {
		if !routes[i].Equal(want) {
			t.Fatalf("route %d is %+v, reference %+v", i, routes[i], want)
		}
		if math.Float64bits(rtts[i]) != math.Float64bits(ref.rtts[i]) {
			t.Fatalf("route %d RTT %v, reference %v", i, rtts[i], ref.rtts[i])
		}
	}
	n := c.NumRecursives()
	for li := range c.Letters {
		for ri := 0; ri < n; ri++ {
			want, ok := ref.index[li][c.Pop.Recursives[ri].ASN]
			if !ok {
				want = ^uint32(0)
			}
			if got := table.CellEntry(li, ri); got != want {
				t.Fatalf("letter %d recursive %d: route index %d, reference %d", li, ri, got, want)
			}
		}
	}
}

// TestRouteTablesMatchSerialReference pins the one parallel route-table
// pass to the serial warm-then-walk reference it replaced, bit for bit:
// the table, its RTTs and every cell's index. It covers Rebase for every
// builtin scenario, incremental (untouched letters' cells copied, RTTs
// carried for unchanged routes) and full rebuild (every route resolved
// and priced afresh), Build on a world's warm letters, and Build on
// freshly deployed letters with empty route memos, at GOMAXPROCS 1 and 4
// on two seeds.
func TestRouteTablesMatchSerialReference(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{1, 2} {
		w, err := world.Build(ctx, world.Config{Seed: seed, Scale: world.ScaleFromEnv(0.05)})
		if err != nil {
			t.Fatal(err)
		}
		b := scenario.NewBaseline(w)
		for _, spec := range scenario.Builtins() {
			var ref *routeTables
			for _, procs := range []int{1, 4} {
				for _, full := range []bool{false, true} {
					t.Run(fmt.Sprintf("seed%d/%s/procs%d/full=%v", seed, spec.Name, procs, full), func(t *testing.T) {
						old := runtime.GOMAXPROCS(procs)
						defer runtime.GOMAXPROCS(old)
						res, err := scenario.Eval(ctx, b, spec, scenario.Options{FullRebuild: full})
						if err != nil {
							t.Fatal(err)
						}
						c := res.World.Campaign()
						if ref == nil {
							r := referenceTables(freshLetters(t, res.World.Graph(), c.Letters), c.Pop, c.Model)
							ref = &r
						}
						requireTables(t, c, *ref)
					})
				}
			}
		}

		ref := referenceTables(freshLetters(t, w.Graph(), w.Letters()), w.Pop(), w.Model())
		for _, procs := range []int{1, 4} {
			t.Run(fmt.Sprintf("seed%d/build/procs%d", seed, procs), func(t *testing.T) {
				old := runtime.GOMAXPROCS(procs)
				defer runtime.GOMAXPROCS(old)
				requireTables(t, w.Campaign(), ref)
				warm, err := ditl.Build(ctx, w.Graph(), w.Letters(), w.Pop(), w.Zone(), w.Rates(), w.Model(), ditl.Config{}, seed)
				if err != nil {
					t.Fatal(err)
				}
				requireTables(t, warm, ref)
				cold, err := ditl.Build(ctx, w.Graph(), freshLetters(t, w.Graph(), w.Letters()), w.Pop(), w.Zone(), w.Rates(),
					w.Model(), ditl.Config{TauMs: 5}, seed)
				if err != nil {
					t.Fatal(err)
				}
				requireTables(t, cold, ref)
			})
		}
	}
}
