package check

import (
	"context"
	"fmt"

	"anycastctx/internal/anycastnet"
	"anycastctx/internal/bgp"
	"anycastctx/internal/topology"
	"anycastctx/internal/world"
)

// routeCacheSample bounds per-deployment verification work: coherence
// violations from a bad cache seed would be systemic, not isolated, so a
// strided sample across the cached sources, which come in ascending ASN
// order, catches them without re-deriving every catchment.
const routeCacheSample = 64

// RouteCacheCoherence asserts that every deployment's memoized route
// cache agrees with a fresh resolution from the live graph. The scenario
// engine seeds mutated deployments from a base world's caches
// (bgp.Resolver.SeedFrom keeps only the entries it proves the mutation
// cannot change), so a stale or mis-remapped entry here means the
// incremental evaluation diverged from a from-scratch build.
type RouteCacheCoherence struct{}

// Name implements Checker.
func (RouteCacheCoherence) Name() string { return "RouteCacheCoherence" }

// Check implements Checker.
func (RouteCacheCoherence) Check(ctx context.Context, w *world.World) []Violation {
	r := &reporter{name: "RouteCacheCoherence"}
	type dep struct {
		label string
		d     *anycastnet.Deployment
	}
	var deps []dep
	for _, l := range w.Letters() {
		deps = append(deps, dep{"letter " + l.Name, l})
	}
	for _, ring := range w.CDN().Rings {
		deps = append(deps, dep{"ring " + ring.Name, ring.Deployment})
	}
	for _, de := range deps {
		checkDeployment(w, de.label, de.d, r)
	}
	return r.violations()
}

func checkDeployment(w *world.World, label string, d *anycastnet.Deployment, r *reporter) {
	type entry struct {
		src topology.ASN
		rt  bgp.Route
		ok  bool
	}
	var cached []entry
	d.ForEachCachedRoute(func(src topology.ASN, rt bgp.Route, ok bool) {
		cached = append(cached, entry{src, rt, ok})
	})
	if len(cached) == 0 {
		return
	}
	stride := 1
	if len(cached) > routeCacheSample {
		stride = len(cached) / routeCacheSample
	}

	// A fresh resolver over the same graph and sites is the oracle: its
	// cache starts empty, so every sampled route is re-derived from
	// scratch.
	fresh, err := anycastnet.NewDeployment(w.Graph(), d.Name+"-coherence-oracle", d.Sites)
	if err != nil {
		r.addf("%s: building oracle deployment: %v", label, err)
		return
	}
	for i := 0; i < len(cached); i += stride {
		e := cached[i]
		rt, ok := fresh.Route(e.src)
		if ok != e.ok {
			r.addf("%s: AS%d cached reachable=%v, fresh resolution says %v", label, e.src, e.ok, ok)
			continue
		}
		if !ok {
			continue
		}
		if !e.rt.Equal(rt) {
			r.addf("%s: AS%d cached route %s, fresh resolution %s", label, e.src, routeString(e.rt), routeString(rt))
		}
	}
}

func routeString(rt bgp.Route) string {
	return fmt.Sprintf("{site %d len %d direct %v via AS%d waypoints %d}",
		rt.SiteID, rt.PathLen, rt.Direct, rt.Via, len(rt.Waypoints))
}
