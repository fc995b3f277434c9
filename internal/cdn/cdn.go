// Package cdn models the Microsoft-style anycast CDN (§2.2): one network
// with points of presence at the world's major metros, front-ends
// colocated with PoPs, and nested anycast rings (R28 ⊂ R47 ⊂ R74 ⊂ R95 ⊂
// R110) each with its own anycast address. Users ingress at the same PoP
// regardless of ring; the internal WAN then carries traffic to a front-end
// in the ring (near-optimally, §6).
//
// It also produces the two measurement datasets the paper uses:
// server-side logs (TCP handshake RTTs with known front-end) and
// client-side fetch measurements (unknown front-end, population held fixed
// across rings).
package cdn

import (
	"context"
	"fmt"
	"math"

	"anycastctx/internal/anycastnet"
	"anycastctx/internal/bgp"
	"anycastctx/internal/faults"
	"anycastctx/internal/geo"
	"anycastctx/internal/latency"
	"anycastctx/internal/obs"
	"anycastctx/internal/par"
	"anycastctx/internal/rng"
	"anycastctx/internal/topology"
)

// Observability handles for the two measurement planes: server-side log
// lines (handshake RTT rows) and client-side (Odin-style) ring
// measurements. Updated from worker goroutines; counters are atomic.
var (
	obsBuilds     = obs.NewCounter("cdn.builds")
	obsRings      = obs.NewCounter("cdn.rings_built")
	obsLogRows    = obs.NewCounter("cdn.server_log_rows")
	obsClientRows = obs.NewCounter("cdn.client_measurement_rows")
	obsLogRTTs    = obs.NewHistogram("cdn.server_log_rtt_ms")

	// Telemetry rows lost to the fault policy, per plane. The rest of
	// each plane is unaffected: row noise is hash-derived per row, so a
	// dropped neighbor never shifts a surviving row's value.
	obsLogRowsLost    = obs.NewCounter("cdn.server_log_rows_dropped")
	obsClientRowsLost = obs.NewCounter("cdn.client_rows_dropped")
)

// ringSpec names one ring and its front-end count.
type ringSpec struct {
	Name string
	Size int
}

// paperRings is the ring inventory in Fig 1, smallest to largest; the
// largest defines the PoP set.
func paperRings() []ringSpec {
	return []ringSpec{
		{Name: "R28", Size: 28},
		{Name: "R47", Size: 47},
		{Name: "R74", Size: 74},
		{Name: "R95", Size: 95},
		{Name: "R110", Size: 110},
	}
}

// Config tunes CDN construction.
type Config struct {
	// PeerBase and peerRichnessBoost set each eyeball's peering
	// probability: min(0.95, PeerBase + peerRichnessBoost·richness),
	// calibrated so roughly 69% of paths are direct (Fig 6a).
	PeerBase float64
}

// peerRichnessBoost scales an eyeball's peering richness into its
// peering probability (see Config.PeerBase).
const peerRichnessBoost float64 = 1.0

func (c Config) withDefaults() Config {
	if c.PeerBase == 0 {
		c.PeerBase = 0.45
	}
	return c
}

// Ring is one anycast ring.
type Ring struct {
	Name string
	// Deployment computes catchments for this ring's anycast address.
	Deployment *anycastnet.Deployment
	// SiteLocs are the ring's front-end locations (dense site IDs).
	SiteLocs []geo.Coord
}

// Size returns the ring's front-end count.
func (r *Ring) Size() int { return len(r.SiteLocs) }

// CDN is the assembled content delivery network.
type CDN struct {
	ASN  topology.ASN
	PoPs []geo.Coord
	// Rings are ordered smallest to largest; larger rings contain all
	// smaller rings' front-ends.
	Rings []*Ring
	// Faults drops individual telemetry rows from both measurement
	// planes. The zero value drops nothing; decisions are hash-per-row,
	// so surviving rows are byte-identical to a fault-free run.
	Faults faults.Policy

	g     *topology.Graph
	model *latency.Model
}

// AddNetwork adds the CDN's network to g: one AS with a PoP at each of the
// heaviest regions, as many as the largest ring has front-ends, peered
// with each eyeball that passes a roll of PeerBase + peerRichnessBoost ×
// richness. PoP jitter draws come from per-PoP splittable streams and
// peering rolls are keyed by eyeball ASN; the edges are added serially in
// eyeball order.
func AddNetwork(g *topology.Graph, cfg Config, seed int64) (*topology.AS, error) {
	cfg = cfg.withDefaults()
	rings := paperRings()
	maxSize := rings[len(rings)-1].Size

	// Front-end locations: heaviest regions first, deduplicated by metro,
	// so smaller rings keep global coverage of the biggest populations.
	regions := g.HeaviestRegions()
	if len(regions) < maxSize {
		return nil, fmt.Errorf("cdn: only %d regions for %d front-ends", len(regions), maxSize)
	}
	pops := make([]geo.Coord, maxSize)
	par.Do(maxSize, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			st := rng.Split(seed, rng.PhaseCDNBuild, uint64(i))
			pops[i] = geo.Jitter(regions[i].Center, 30, st.Float64(), st.Float64())
		}
	})

	as := g.AddCDNAS("cdn", pops)
	for _, e := range g.Eyeballs() {
		p := cfg.PeerBase + peerRichnessBoost*g.AS(e).PeeringRichness
		if p > 0.95 {
			p = 0.95
		}
		st := rng.Split(seed, rng.PhaseCDNPeering, uint64(e))
		if st.Float64() < p {
			g.Peer(e, as.ASN)
		}
	}
	return as, nil
}

// Build constructs one deployment per ring on the CDN's network, the AS
// that AddNetwork added to g: the AS's presence points are the PoPs, and
// each ring's front-ends are the first Size of them. The span context
// parents a "cdn.build" span under the caller's trace.
func Build(ctx context.Context, g *topology.Graph, as *topology.AS, model *latency.Model) (*CDN, error) {
	_, span := obs.StartSpanCtx(ctx, "cdn.build")
	defer span.End()
	pops := as.Presence
	c := &CDN{ASN: as.ASN, PoPs: pops, g: g, model: model}
	for _, spec := range paperRings() {
		if spec.Size > len(pops) {
			return nil, fmt.Errorf("cdn: ring %s larger than PoP set", spec.Name)
		}
		sites := make([]bgp.Site, spec.Size)
		locs := make([]geo.Coord, spec.Size)
		for i := 0; i < spec.Size; i++ {
			sites[i] = bgp.Site{ID: i, Loc: pops[i], Host: as.ASN, Global: true}
			locs[i] = pops[i]
		}
		dep, err := anycastnet.NewDeployment(g, spec.Name, sites)
		if err != nil {
			return nil, err
		}
		c.Rings = append(c.Rings, &Ring{Name: spec.Name, Deployment: dep, SiteLocs: locs})
		obsRings.Inc()
	}
	obsBuilds.Inc()
	return c, nil
}

// Overlay returns a copy of c bound to graph g with its ring list
// replaced; the PoP set, AS number, latency model, and fault policy
// carry over. The scenario engine uses it to swap mutated rings into an
// otherwise shared CDN without rebuilding PoPs or re-rolling peering.
func (c *CDN) Overlay(g *topology.Graph, rings []*Ring) *CDN {
	return &CDN{
		ASN:    c.ASN,
		PoPs:   c.PoPs,
		Rings:  rings,
		Faults: c.Faults,
		g:      g,
		model:  c.model,
	}
}

// Ring returns the ring by name, or nil.
func (c *CDN) Ring(name string) *Ring {
	for _, r := range c.Rings {
		if r.Name == name {
			return r
		}
	}
	return nil
}

// Location is one ⟨region, AS⟩ user location (§2.2's unit of aggregation).
type Location struct {
	ASN    topology.ASN
	Region int
	Loc    geo.Coord
	Users  float64
}

// Locations derives the ⟨region, AS⟩ user locations from the graph's
// eyeballs, scaled to totalUsers.
func Locations(g *topology.Graph, totalUsers float64) []Location {
	out := make([]Location, 0, len(g.Eyeballs()))
	for _, e := range g.Eyeballs() {
		as := g.AS(e)
		if as.UserWeight <= 0 {
			continue
		}
		out = append(out, Location{
			ASN:    e,
			Region: as.Region,
			Loc:    as.Loc,
			Users:  as.UserWeight * totalUsers,
		})
	}
	return out
}

// ServerLogRow is one server-side log aggregate: a location's median TCP
// handshake RTT to the front-end that serves it in one ring.
type ServerLogRow struct {
	Location Location
	Ring     string
	// FrontEnd is the site ID within the ring.
	FrontEnd int
	// PathLen is the AS path length of the route.
	PathLen int
	// Direct reports a peered (2-AS) path.
	Direct bool
	// MedianRTTMs is the measured median handshake RTT.
	MedianRTTMs float64
	// Samples is how many handshakes the median was computed over.
	Samples int
}

// ServerSideLogsCtx measures every location against every ring using
// server-side TCP RTTs (§2.2). Locations without a route are skipped.
//
// Work fans out across CPUs; each ⟨ring, location⟩ pair draws its
// measurement noise from its own splittable stream, so results are
// byte-identical regardless of scheduling. A traced run records
// "cdn.server_logs" with per-worker "cdn.server_logs.shard" children.
func (c *CDN) ServerSideLogsCtx(ctx context.Context, locs []Location, seed int64) []ServerLogRow {
	ctx, span := obs.StartSpanCtx(ctx, "cdn.server_logs")
	defer span.End()
	grid := make([][]ServerLogRow, len(c.Rings))
	for ri := range c.Rings {
		grid[ri] = make([]ServerLogRow, len(locs))
		ring := c.Rings[ri]
		ri := ri
		par.DoCtx(ctx, len(locs), func(ctx context.Context, lo, hi int) {
			_, sp := obs.StartSpanCtx(ctx, "cdn.server_logs.shard")
			defer sp.End()
			for i := lo; i < hi; i++ {
				loc := locs[i]
				rt, ok := ring.Deployment.Route(loc.ASN)
				if !ok {
					continue
				}
				if c.Faults.DropServerLogRow(ri, int64(loc.ASN)) {
					obsLogRowsLost.Inc()
					continue
				}
				rowStream := rng.Split(seed, rng.PhaseCDNServerLogs, uint64(ri)).Fork(uint64(loc.ASN))
				base := c.model.BaseRTTMs(loc.ASN, rt) + 0.5
				// Sample counts scale with population; >83% of medians
				// in the paper rest on 500+ measurements.
				n := int(math.Min(2000, math.Max(20, loc.Users/5000)))
				grid[ri][i] = ServerLogRow{
					Location:    loc,
					Ring:        ring.Name,
					FrontEnd:    rt.SiteID,
					PathLen:     rt.PathLen,
					Direct:      rt.Direct,
					MedianRTTMs: c.model.MedianOfSamples(&rowStream, base, 11),
					Samples:     n,
				}
			}
		})
	}
	rows := make([]ServerLogRow, 0, len(locs)*len(c.Rings))
	for ri := range grid {
		for _, r := range grid[ri] {
			if r.Ring != "" {
				rows = append(rows, r)
				obsLogRTTs.Observe(r.MedianRTTMs)
			}
		}
	}
	obsLogRows.Add(uint64(len(rows)))
	return rows
}

// ClientMeasurementRow is one client-side (Odin-style) aggregate: the
// median fetch RTT from a location to a ring, front-end unknown. The same
// population measures every ring, enabling fair ring-to-ring deltas
// (Fig 4b).
type ClientMeasurementRow struct {
	Location    Location
	Ring        string
	MedianRTTMs float64
}

// ClientMeasurementsCtx has every location measure every ring, fanned out
// across CPUs with order-independent determinism (see ServerSideLogsCtx).
// A traced run records "cdn.client_measurements" with per-worker
// "cdn.client_measurements.shard" children.
func (c *CDN) ClientMeasurementsCtx(ctx context.Context, locs []Location, seed int64) []ClientMeasurementRow {
	ctx, span := obs.StartSpanCtx(ctx, "cdn.client_measurements")
	defer span.End()
	grid := make([]ClientMeasurementRow, len(locs)*len(c.Rings))
	par.DoCtx(ctx, len(locs), func(ctx context.Context, lo, hi int) {
		_, sp := obs.StartSpanCtx(ctx, "cdn.client_measurements.shard")
		defer sp.End()
		for i := lo; i < hi; i++ {
			loc := locs[i]
			for ri, ring := range c.Rings {
				rt, ok := ring.Deployment.Route(loc.ASN)
				if !ok {
					continue
				}
				if c.Faults.DropClientRow(ri, int64(loc.ASN)) {
					obsClientRowsLost.Inc()
					continue
				}
				rowStream := rng.Split(seed, rng.PhaseCDNClient, uint64(ri)).Fork(uint64(loc.ASN))
				base := c.model.BaseRTTMs(loc.ASN, rt) + 0.5
				grid[i*len(c.Rings)+ri] = ClientMeasurementRow{
					Location:    loc,
					Ring:        ring.Name,
					MedianRTTMs: c.model.MedianOfSamples(&rowStream, base, 21),
				}
			}
		}
	})
	rows := make([]ClientMeasurementRow, 0, len(grid))
	for _, r := range grid {
		if r.Ring != "" {
			rows = append(rows, r)
		}
	}
	obsClientRows.Add(uint64(len(rows)))
	return rows
}

// RingDelta is one location's latency change from a smaller ring to the
// next larger one (positive = larger ring is faster).
type RingDelta struct {
	Location  Location
	FromRing  string
	ToRing    string
	DeltaMs   float64 // median(smaller) − median(larger)
	PerPageMs float64 // DeltaMs × RTTs per page load
}

// RingDeltas computes Fig 4b's per-location deltas between consecutive
// rings from client-side measurements.
func RingDeltas(rows []ClientMeasurementRow, rings []string, rttsPerPage int) []RingDelta {
	type key struct {
		asn  topology.ASN
		ring string
	}
	byKey := make(map[key]ClientMeasurementRow, len(rows))
	for _, r := range rows {
		byKey[key{r.Location.ASN, r.Ring}] = r
	}
	var out []RingDelta
	for _, r := range rows {
		if r.Ring != rings[0] {
			continue
		}
		for i := 0; i+1 < len(rings); i++ {
			small, okS := byKey[key{r.Location.ASN, rings[i]}]
			big, okB := byKey[key{r.Location.ASN, rings[i+1]}]
			if !okS || !okB {
				continue
			}
			d := small.MedianRTTMs - big.MedianRTTMs
			out = append(out, RingDelta{
				Location:  r.Location,
				FromRing:  rings[i],
				ToRing:    rings[i+1],
				DeltaMs:   d,
				PerPageMs: d * float64(rttsPerPage),
			})
		}
	}
	return out
}
