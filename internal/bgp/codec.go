package bgp

import (
	"fmt"
	"sort"

	"anycastctx/internal/artifact"
	"anycastctx/internal/geo"
	"anycastctx/internal/topology"
)

// AppendRoute encodes one Route. The encoding is deterministic: floats
// are raw IEEE-754 bits, so decode→encode reproduces the input bytes.
func AppendRoute(w *artifact.Writer, rt Route) {
	w.I32(int32(rt.SiteID))
	w.I32(int32(rt.PathLen))
	w.Bool(rt.Direct)
	w.I32(int32(rt.Via))
	w.U8(uint8(len(rt.Waypoints)))
	for _, p := range rt.Waypoints {
		w.F64(p.Lat)
		w.F64(p.Lon)
	}
}

// ReadRoute decodes one Route written by AppendRoute.
func ReadRoute(r *artifact.Reader) Route {
	rt := Route{
		SiteID:  int(r.I32()),
		PathLen: int(r.I32()),
		Direct:  r.Bool(),
		Via:     topology.ASN(r.I32()),
	}
	n := int(r.U8())
	if n > 0 {
		rt.Waypoints = make([]geo.Coord, n)
		for i := range rt.Waypoints {
			rt.Waypoints[i].Lat = r.F64()
			rt.Waypoints[i].Lon = r.F64()
		}
	}
	return rt
}

// AppendState persists the resolver's route state for srcs: the
// transit-distance tables and one cache entry per source in srcs order,
// negative (unreachable) entries included. The tables are ASN-sorted, so
// the bytes are independent of map iteration order, and hold one
// distance per site, each site repeating its host's, so the layout does
// not depend on how sites group into hosts. Every source in srcs must
// already be resolved (Warm the resolver first); missing entries are an
// error rather than a silent gap, because a partial artifact would make
// warm runs diverge from cold ones.
func (r *Resolver) AppendState(w *artifact.Writer, srcs []topology.ASN) error {
	td := r.tables()
	asns := make([]topology.ASN, 0, len(td))
	for p := range td {
		asns = append(asns, p)
	}
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
	w.U32(uint32(len(r.sites)))
	w.U64(uint64(len(asns)))
	for _, p := range asns {
		w.I32(int32(p))
		dists := td[p]
		for _, h := range r.hostOf {
			w.U8(dists[h])
		}
	}
	w.U64(uint64(len(srcs)))
	for _, src := range srcs {
		sh := &r.cache[uint32(src)%routeCacheShards]
		sh.mu.RLock()
		c, hit := sh.m[src]
		sh.mu.RUnlock()
		if !hit {
			return fmt.Errorf("bgp: AppendState: source AS%d not resolved", src)
		}
		w.I32(int32(src))
		w.Bool(c.ok)
		AppendRoute(w, c.rt)
	}
	return nil
}

// RestoreState seeds the resolver from an AppendState payload: the
// transit tables are folded back to one distance per host and pinned
// (never recomputed), and every encoded entry lands in the route cache,
// so downstream route lookups are hits with values identical to a fresh
// resolution. A table that gives one host two distances is an error, and
// so is restoring into a resolver that has already computed tables or
// resolved routes — the artifact engine only restores into freshly built
// resolvers.
func (r *Resolver) RestoreState(rd *artifact.Reader) error {
	nSites := int(rd.U32())
	if err := rd.Err(); err != nil {
		return err
	}
	if nSites != len(r.sites) {
		return fmt.Errorf("bgp: RestoreState: artifact has %d sites, resolver has %d", nSites, len(r.sites))
	}
	nASN := int(rd.U64())
	if err := rd.Err(); err != nil {
		return err
	}
	td := make(map[topology.ASN][]uint8, nASN)
	for i := 0; i < nASN; i++ {
		p := topology.ASN(rd.I32())
		dists := make([]uint8, len(r.hosts))
		for j, h := range r.hostOf {
			d := rd.U8()
			if j > r.hosts[h].sites[0] && d != dists[h] {
				if err := rd.Err(); err != nil {
					return err
				}
				return fmt.Errorf("bgp: RestoreState: transit AS%d reaches host AS%d in %d and %d hops",
					p, r.hosts[h].as.ASN, dists[h], d)
			}
			dists[h] = d
		}
		td[p] = dists
	}
	nSrc := int(rd.U64())
	if err := rd.Err(); err != nil {
		return err
	}
	entries := make(map[topology.ASN]cachedRoute, nSrc)
	for i := 0; i < nSrc; i++ {
		src := topology.ASN(rd.I32())
		ok := rd.Bool()
		rt := ReadRoute(rd)
		if ok && (rt.SiteID < 0 || rt.SiteID >= nSites) {
			return fmt.Errorf("bgp: RestoreState: route for AS%d names site %d of %d", src, rt.SiteID, nSites)
		}
		entries[src] = cachedRoute{rt, ok}
	}
	if err := rd.Err(); err != nil {
		return err
	}
	seeded := false
	r.tablesOnce.Do(func() {
		r.transitDist = td
		seeded = true
	})
	if !seeded {
		return fmt.Errorf("bgp: RestoreState: resolver already has transit tables")
	}
	n := 0
	for src, c := range entries {
		sh := &r.cache[uint32(src)%routeCacheShards]
		sh.mu.Lock()
		if _, dup := sh.m[src]; !dup {
			sh.m[src] = c
			n++
		}
		sh.mu.Unlock()
	}
	obsCacheSeeded.Add(uint64(n))
	obsCacheEntries.Add(float64(n))
	return nil
}
