// Package core implements the paper's primary contribution: the
// measurement methodology that puts anycast performance in application
// context. It computes geographic inflation (Eq. 1), latency inflation
// (Eq. 2), the favorite-site fraction (Eq. 3), per-user query amortization
// (§4.3), efficiency, and coverage — uniformly across the root DNS and the
// CDN so the two systems are directly comparable (§6).
package core

import (
	"math"

	"anycastctx/internal/cdn"
	"anycastctx/internal/ditl"
	"anycastctx/internal/geo"
	"anycastctx/internal/stats"
)

// GeoInflationLetter computes Eq. 1 for one letter over the DITL∩CDN join:
// for each recursive, the query-share-weighted great-circle RTT to the
// sites its queries reach, minus the RTT to the closest global site,
// scaled by 2/c_f. Observations are weighted by joined user counts.
func GeoInflationLetter(c *ditl.Campaign, li int, j *ditl.Join) []stats.WeightedValue {
	out := make([]stats.WeightedValue, 0, len(j.Rows))
	for _, row := range j.Rows {
		a := c.At(li, row.RecIdx)
		if !a.Reachable {
			continue
		}
		gi := geoInflationMs(c, li, row.RecIdx, &a)
		if gi < 0 {
			gi = 0
		}
		out = append(out, stats.WeightedValue{Value: gi, Weight: row.Users})
	}
	return out
}

// geoInflationMs evaluates Eq. 1's bracket for assignment a of recursive
// ri on letter li. The favourite site's distance and the closest global
// site's come from the campaign's distance columns; only an alternate
// site is priced here.
func geoInflationMs(c *ditl.Campaign, li, ri int, a *ditl.Assignment) float64 {
	favKm, minD := c.SiteDistances(li, ri)
	sites := a.Sites()
	mean := sites[0].Frac * favKm
	if len(sites) > 1 {
		alt := c.Letters[li].SitePoint(sites[1].SiteID)
		mean += sites[1].Frac * geo.DistanceKm(c.Pop.Recursives[ri].Loc, alt.Coord)
	}
	return geo.GeoRTTMs(mean - minD)
}

// GeoInflationAllRoots computes the All Roots line of Fig 2a: each
// recursive's inflation averaged over letters by its own query mix (the
// expected inflation of a single root query).
func GeoInflationAllRoots(c *ditl.Campaign, j *ditl.Join) []stats.WeightedValue {
	out := make([]stats.WeightedValue, 0, len(j.Rows))
	for _, row := range j.Rows {
		var mean, wsum float64
		for li := range c.Letters {
			a := c.At(li, row.RecIdx)
			if !a.Reachable || a.LetterWeight <= 0 {
				continue
			}
			gi := geoInflationMs(c, li, row.RecIdx, &a)
			if gi < 0 {
				gi = 0
			}
			mean += a.LetterWeight * gi
			wsum += a.LetterWeight
		}
		if wsum <= 0 {
			continue
		}
		out = append(out, stats.WeightedValue{Value: mean / wsum, Weight: row.Users})
	}
	return out
}

// LatencyInflationLetter computes Eq. 2 for one letter: measured median
// TCP latency to the queried sites minus the best-case RTT to the closest
// global site at (2/3)·c_f. Only recursives with ≥10 TCP samples
// contribute (§3: covers ~40% of volume).
func LatencyInflationLetter(c *ditl.Campaign, li int, j *ditl.Join) []stats.WeightedValue {
	out := make([]stats.WeightedValue, 0, len(j.Rows))
	for _, row := range j.Rows {
		a := c.At(li, row.RecIdx)
		if !a.Reachable || math.IsNaN(a.TCPMedianRTTMs) {
			continue
		}
		v := latencyInflationMs(c, li, row.RecIdx, &a)
		if v < 0 {
			v = 0
		}
		out = append(out, stats.WeightedValue{Value: v, Weight: row.Users})
	}
	return out
}

// latencyInflationMs evaluates Eq. 2 for assignment a of recursive ri on
// letter li.
func latencyInflationMs(c *ditl.Campaign, li, ri int, a *ditl.Assignment) float64 {
	// Measured latency per site: the favorite carries the TCP median; the
	// occasional secondary is approximated by the deterministic base RTT.
	var mean float64
	for i, s := range a.Sites() {
		lat := a.TCPMedianRTTMs
		if i > 0 {
			lat = a.BaseRTTMs
		}
		mean += s.Frac * lat
	}
	_, minD := c.SiteDistances(li, ri)
	return mean - geo.RTTLowerBoundMs(minD)
}

// LatencyInflationAllRoots averages Eq. 2 across letters per recursive by
// query mix, over letters with usable TCP medians.
func LatencyInflationAllRoots(c *ditl.Campaign, j *ditl.Join, usable map[string]bool) []stats.WeightedValue {
	out := make([]stats.WeightedValue, 0, len(j.Rows))
	for _, row := range j.Rows {
		var mean, wsum float64
		for li := range c.Letters {
			if usable != nil && !usable[c.LetterNames[li]] {
				continue
			}
			a := c.At(li, row.RecIdx)
			if !a.Reachable || math.IsNaN(a.TCPMedianRTTMs) || a.LetterWeight <= 0 {
				continue
			}
			v := latencyInflationMs(c, li, row.RecIdx, &a)
			if v < 0 {
				v = 0
			}
			mean += a.LetterWeight * v
			wsum += a.LetterWeight
		}
		if wsum <= 0 {
			continue
		}
		out = append(out, stats.WeightedValue{Value: mean / wsum, Weight: row.Users})
	}
	return out
}

// CDNGeoInflation computes Eq. 1 per RTT for one ring from server-side
// logs, weighted by location users (Fig 5a).
func CDNGeoInflation(rows []cdn.ServerLogRow, ring *cdn.Ring) []stats.WeightedValue {
	out := make([]stats.WeightedValue, 0, len(rows))
	sites := geo.NewIndex(ring.SiteLocs)
	for _, r := range rows {
		if r.Ring != ring.Name {
			continue
		}
		q := geo.Prepare(r.Location.Loc)
		chosen := q.DistanceKm(sites.Point(r.FrontEnd))
		_, minD := sites.Nearest(q)
		gi := geo.GeoRTTMs(chosen - minD)
		if gi < 0 {
			gi = 0
		}
		out = append(out, stats.WeightedValue{Value: gi, Weight: r.Location.Users})
	}
	return out
}

// CDNGeoInflationRoutes computes Eq. 1 for one ring straight from its
// routing catchments, weighted by location users. Unlike CDNGeoInflation
// it involves no server-side log sampling (whose noise streams are keyed
// by ring index, not ring identity), so it is comparable across worlds
// that renumber rings — the scenario engine's before/after deltas use it.
// On a CDN that drops no log row it gives CDNGeoInflation's observations
// over the server-side logs, in the same order, so abl-peering samples no
// logs.
func CDNGeoInflationRoutes(ring *cdn.Ring, locs []cdn.Location) []stats.WeightedValue {
	out := make([]stats.WeightedValue, 0, len(locs))
	sites := geo.NewIndex(ring.SiteLocs)
	for _, l := range locs {
		rt, ok := ring.Deployment.Route(l.ASN)
		if !ok {
			continue
		}
		q := geo.Prepare(l.Loc)
		chosen := q.DistanceKm(sites.Point(rt.SiteID))
		_, minD := sites.Nearest(q)
		gi := geo.GeoRTTMs(chosen - minD)
		if gi < 0 {
			gi = 0
		}
		out = append(out, stats.WeightedValue{Value: gi, Weight: l.Users})
	}
	return out
}

// CDNLatencyInflation computes Eq. 2 per RTT for one ring from server-side
// logs (Fig 5b).
func CDNLatencyInflation(rows []cdn.ServerLogRow, ring *cdn.Ring) []stats.WeightedValue {
	out := make([]stats.WeightedValue, 0, len(rows))
	sites := geo.NewIndex(ring.SiteLocs)
	for _, r := range rows {
		if r.Ring != ring.Name {
			continue
		}
		_, minD := sites.Nearest(geo.Prepare(r.Location.Loc))
		li := r.MedianRTTMs - geo.RTTLowerBoundMs(minD)
		if li < 0 {
			li = 0
		}
		out = append(out, stats.WeightedValue{Value: li, Weight: r.Location.Users})
	}
	return out
}

// Efficiency returns the share of user weight with (near-)zero geographic
// inflation — Fig 7a's y-axis-intercept metric (§7.2). epsilonMs tolerates
// quantization (1 ms ≈ 100 km).
func Efficiency(obs []stats.WeightedValue, epsilonMs float64) float64 {
	var zero, total float64
	for _, o := range obs {
		total += o.Weight
		if o.Value <= epsilonMs {
			zero += o.Weight
		}
	}
	if total == 0 {
		return 0
	}
	return zero / total
}
