package bgp

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"anycastctx/internal/obs"
	"anycastctx/internal/topology"
)

// These tests exist for `go test -race` (CI runs the whole tree under the
// race detector): they hammer the resolver's route memo from many
// goroutines so a cache-fill data race cannot land silently.

// TestRouteConcurrentCacheFill resolves every eyeball from many goroutines
// simultaneously on one shared resolver — maximum contention on a cold
// cache — and checks every goroutine observes the exact route a serial
// resolver computes. The route counters must advance once per source, as
// the cache misses do, however the fills race. Meanwhile ForEachCached
// walks the filling memo and must still yield ascending sources.
func TestRouteConcurrentCacheFill(t *testing.T) {
	g := buildWorld(t, 11)
	sites := deploySites(g, 12, 0.3)
	shared, err := NewResolver(g, sites)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := NewResolver(g, sites)
	if err != nil {
		t.Fatal(err)
	}
	eyeballs := g.Eyeballs()
	want := make(map[topology.ASN]Route, len(eyeballs))
	for _, e := range eyeballs {
		if rt, ok := serial.Route(e); ok {
			want[e] = rt
		}
	}

	const goroutines = 16
	before := obs.TakeSnapshot()
	stop, walked := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(walked)
		for {
			prev := topology.ASN(0)
			shared.ForEachCached(func(src topology.ASN, _ Route, _ bool) {
				if src <= prev {
					t.Errorf("ForEachCached yielded AS%d after AS%d", src, prev)
				}
				prev = src
			})
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	var wg sync.WaitGroup
	for k := 0; k < goroutines; k++ {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			// Each goroutine walks the eyeballs from its own offset so
			// different goroutines race on the same cold entries.
			for i := range eyeballs {
				e := eyeballs[(i+off*len(eyeballs)/goroutines)%len(eyeballs)]
				rt, ok := shared.Route(e)
				wantRt, wantOK := want[e]
				if ok != wantOK {
					t.Errorf("AS%d: concurrent ok=%v, serial ok=%v", e, ok, wantOK)
					return
				}
				if ok && (rt.SiteID != wantRt.SiteID || rt.PathLen != wantRt.PathLen ||
					rt.Via != wantRt.Via || rt.Direct != wantRt.Direct) {
					t.Errorf("AS%d: concurrent route %+v != serial %+v", e, rt, wantRt)
					return
				}
			}
		}(k)
	}
	wg.Wait()
	close(stop)
	<-walked

	delta := obs.TakeSnapshot().CounterDeltas(before)
	resolved, misses := delta["bgp.routes_resolved"], delta["bgp.route_cache_misses"]
	if resolved != uint64(len(want)) || misses != uint64(len(eyeballs)) {
		t.Errorf("routes resolved %d, cache misses %d; want %d and %d (one per source)",
			resolved, misses, len(want), len(eyeballs))
	}
	if len(want) != len(eyeballs) {
		t.Errorf("%d of %d eyeballs reach a site; this world must route them all", len(want), len(eyeballs))
	}
	if hits := delta["bgp.route_cache_hits"]; hits != goroutines*uint64(len(eyeballs))-misses {
		t.Errorf("cache hits %d, want %d calls less %d misses", hits, goroutines*len(eyeballs), misses)
	}
}

// TestCatchmentsConcurrent runs overlapping catchment batches on one
// shared resolver (each batch itself fans out internally through WarmCtx)
// and checks the merged maps are identical across goroutines and to a
// serial resolver.
func TestCatchmentsConcurrent(t *testing.T) {
	g := buildWorld(t, 12)
	sites := deploySites(g, 8, 0.25)
	shared, err := NewResolver(g, sites)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := NewResolver(g, sites)
	if err != nil {
		t.Fatal(err)
	}
	srcs := g.Eyeballs()
	want := serial.catchments(srcs)

	const goroutines = 8
	got := make([]map[topology.ASN]Route, goroutines)
	var wg sync.WaitGroup
	for k := 0; k < goroutines; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			got[k] = shared.catchments(srcs)
		}(k)
	}
	wg.Wait()

	for k := range got {
		if len(got[k]) != len(want) {
			t.Fatalf("goroutine %d: %d catchments, serial %d", k, len(got[k]), len(want))
		}
		for asn, rt := range got[k] {
			if wantRt := want[asn]; rt.SiteID != wantRt.SiteID || rt.PathLen != wantRt.PathLen {
				t.Fatalf("goroutine %d AS%d: %+v != serial %+v", k, asn, rt, wantRt)
			}
		}
	}
}

// TestWarmDoesNotChangeRoutes checks Warm is a pure pre-computation: a
// warmed resolver answers exactly like a cold one. It warms a shuffled
// half of the eyeballs, after which ForEachCached must yield exactly
// those sources, in ascending ASN order.
func TestWarmDoesNotChangeRoutes(t *testing.T) {
	g := buildWorld(t, 13)
	sites := deploySites(g, 6, 0.3)
	warmed, err := NewResolver(g, sites)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := NewResolver(g, sites)
	if err != nil {
		t.Fatal(err)
	}
	srcs := append([]topology.ASN(nil), g.Eyeballs()...)
	rand.New(rand.NewSource(13)).Shuffle(len(srcs), func(i, j int) { srcs[i], srcs[j] = srcs[j], srcs[i] })
	srcs = srcs[:len(srcs)/2]
	warmed.WarmCtx(context.Background(), srcs)
	var cached []topology.ASN
	warmed.ForEachCached(func(src topology.ASN, _ Route, _ bool) { cached = append(cached, src) })
	slices.Sort(srcs)
	if !slices.Equal(cached, srcs) {
		t.Fatalf("ForEachCached yielded %d sources, want the %d warmed ones in ascending order", len(cached), len(srcs))
	}
	for _, e := range g.Eyeballs() {
		a, aok := warmed.Route(e)
		b, bok := cold.Route(e)
		if aok != bok || a.SiteID != b.SiteID || a.PathLen != b.PathLen || a.Dist() != b.Dist() {
			t.Fatalf("AS%d: warmed route (%+v, %v) != cold route (%+v, %v)", e, a, aok, b, bok)
		}
	}
}

// catchments resolves every source through the sharded warm path and
// collects the successful routes.
func (r *Resolver) catchments(srcs []topology.ASN) map[topology.ASN]Route {
	r.WarmCtx(context.Background(), srcs)
	out := make(map[topology.ASN]Route, len(srcs))
	for _, s := range srcs {
		if rt, ok := r.Route(s); ok {
			out[s] = rt
		}
	}
	return out
}
