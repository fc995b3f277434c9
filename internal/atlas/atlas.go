// Package atlas models a RIPE-Atlas-style probe platform: a few thousand
// vantage points with biased coverage (§2.2 notes Atlas covers ~3,300 ASes
// and skews toward well-connected networks, so its latencies run lower
// than the global user population's — a bias the paper folds into its
// reading of Fig 4a).
package atlas

import (
	"fmt"

	"anycastctx/internal/anycastnet"
	"anycastctx/internal/bgp"
	"anycastctx/internal/geo"
	"anycastctx/internal/latency"
	"anycastctx/internal/par"
	"anycastctx/internal/rng"
	"anycastctx/internal/topology"
)

// Probe is one vantage point.
type Probe struct {
	ID     int
	ASN    topology.ASN
	Region int
	Loc    geo.Coord
}

// Platform is the probe fleet.
type Platform struct {
	Probes []Probe

	g     *topology.Graph
	model *latency.Model
}

// richnessBias skews placement toward well-peered ASes: selection
// weight = richness^richnessBias.
const richnessBias float64 = 0.9

// Deploy places numProbes probes in eyeball ASes (the paper uses ~1,000
// for pings and ~7,200 for traceroutes), biased toward well-connected
// networks (volunteers host probes where infrastructure is good). Each
// probe draws its placement from its own splittable stream, so the loop
// fans out under par.Do into a pre-sized slice with byte-identical
// results at any worker count.
func Deploy(g *topology.Graph, model *latency.Model, numProbes int, seed int64) (*Platform, error) {
	eyeballs := g.Eyeballs()
	if len(eyeballs) == 0 {
		return nil, fmt.Errorf("atlas: no eyeball ASes")
	}
	weights := make([]float64, len(eyeballs))
	var sum float64
	for i, e := range eyeballs {
		as := g.AS(e)
		w := pow(as.PeeringRichness, richnessBias)
		weights[i] = w
		sum += w
	}
	p := &Platform{g: g, model: model, Probes: make([]Probe, numProbes)}
	par.Do(numProbes, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			st := rng.Split(seed, rng.PhaseAtlasDeploy, uint64(i))
			x := st.Float64() * sum
			idx := 0
			for ; idx < len(weights)-1; idx++ {
				x -= weights[idx]
				if x <= 0 {
					break
				}
			}
			as := g.AS(eyeballs[idx])
			p.Probes[i] = Probe{
				ID:     i,
				ASN:    as.ASN,
				Region: as.Region,
				Loc:    geo.Jitter(as.Loc, 60, st.Float64(), st.Float64()),
			}
		}
	})
	return p, nil
}

func pow(b, e float64) float64 {
	if b <= 0 {
		return 0
	}
	r := 1.0
	for e >= 1 {
		r *= b
		e--
	}
	if e > 0 {
		// linear interpolation suffices for a placement weight
		r *= 1 + e*(b-1)
	}
	return r
}

// ASCount returns the number of distinct ASes hosting probes (the
// platform's coverage, ~3,300 for real Atlas vs 22k+ ASes in DITL).
func (p *Platform) ASCount() int {
	seen := map[topology.ASN]bool{}
	for _, pr := range p.Probes {
		seen[pr.ASN] = true
	}
	return len(seen)
}

// PingResult is one probe's measurement toward a deployment.
type PingResult struct {
	Probe Probe
	// RTTMs is the median of the ping samples.
	RTTMs float64
	// SiteID is the site the pings landed on (not visible to a real
	// probe, but known to the simulator for validation).
	SiteID int
}

// Ping measures a deployment from every probe, samples pings per probe
// (the paper uses 3), reporting the per-probe median. Probes without a
// route are skipped.
//
// Both the route resolution and the sampling fan out across CPUs:
// measurement noise comes from a per-⟨deployment, probe⟩ splittable
// stream, so results are byte-identical at any worker count and the
// same probe re-measuring a different deployment draws fresh noise.
func (p *Platform) Ping(d *anycastnet.Deployment, samples int, seed int64) []PingResult {
	if samples <= 0 {
		samples = 3
	}
	routes := p.resolveAll(d)
	results := make([]PingResult, len(p.Probes))
	depStream := rng.Split(seed, rng.PhaseAtlasPing, rng.HashString(d.Name))
	par.Do(len(p.Probes), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if !routes[i].ok {
				continue
			}
			pr := p.Probes[i]
			st := depStream.Fork(uint64(pr.ID))
			base := p.model.BaseRTTMs(pr.ASN, routes[i].rt)
			results[i] = PingResult{
				Probe:  pr,
				RTTMs:  p.model.MedianOfSamples(&st, base, samples),
				SiteID: routes[i].rt.SiteID,
			}
		}
	})
	out := make([]PingResult, 0, len(p.Probes))
	for i := range results {
		if routes[i].ok {
			out = append(out, results[i])
		}
	}
	return out
}

// probeRoute is one probe's resolved route (ok false when unreachable).
type probeRoute struct {
	rt bgp.Route
	ok bool
}

// resolveAll routes every probe toward d across one worker per CPU.
func (p *Platform) resolveAll(d *anycastnet.Deployment) []probeRoute {
	routes := make([]probeRoute, len(p.Probes))
	par.Do(len(p.Probes), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			routes[i].rt, routes[i].ok = d.Route(p.Probes[i].ASN)
		}
	})
	return routes
}

// TraceResult is one probe's AS-path measurement toward a deployment.
type TraceResult struct {
	Probe Probe
	// PathLen is the number of distinct organizations on the path after
	// sibling merging (Fig 6a's metric).
	PathLen int
}

// Traceroute measures AS path lengths from every probe, merging sibling
// ASes into organizations as the paper does with CAIDA's dataset. The
// per-probe work is deterministic, so it fans out across CPUs into a
// pre-sized slice and compacts in probe order (byte-identical to serial).
func (p *Platform) Traceroute(d *anycastnet.Deployment) []TraceResult {
	routes := p.resolveAll(d)
	lens := make([]int, len(p.Probes))
	par.Do(len(p.Probes), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if routes[i].ok {
				lens[i] = p.orgPathLen(p.Probes[i].ASN, routes[i].rt.Via, routes[i].rt.PathLen)
			}
		}
	})
	out := make([]TraceResult, 0, len(p.Probes))
	for i, pr := range p.Probes {
		if routes[i].ok {
			out = append(out, TraceResult{Probe: pr, PathLen: lens[i]})
		}
	}
	return out
}

// orgPathLen shortens an AS path when adjacent hops belong to one
// organization. Only the first hop's org is observable in our compact
// route representation, so the merge applies when source and first hop are
// siblings (the common case the CAIDA merge fixes).
func (p *Platform) orgPathLen(src, via topology.ASN, pathLen int) int {
	s, v := p.g.AS(src), p.g.AS(via)
	if s != nil && v != nil && s.Org == v.Org && pathLen > 2 {
		return pathLen - 1
	}
	return pathLen
}
