package core

import (
	"math"

	"anycastctx/internal/anycastnet"
	"anycastctx/internal/geo"
	"anycastctx/internal/latency"
	"anycastctx/internal/par"
	"anycastctx/internal/stats"
	"anycastctx/internal/topology"
)

// RoutingComparison quantifies what BGP leaves on the table for one
// deployment: per source (user-weighted), the actual RTT versus the
// optimal-route RTT.
type RoutingComparison struct {
	// ActualMedianMs and OptimalMedianMs are user-weighted medians.
	ActualMedianMs, OptimalMedianMs float64
	// MedianGapMs is the median per-user gap (actual − optimal).
	MedianGapMs float64
	// P95GapMs is the tail gap.
	P95GapMs float64
	// AtOptimalShare is the user share routed to their closest site.
	AtOptimalShare float64
}

// CompareRouting evaluates BGP against the optimal baseline over all
// eyeball ASes, weighting by user share. The optimal route reaches the
// geographically closest global site at the propagation lower bound (§3:
// "we find it valuable to compare latency to a theoretical lower
// bound"). Per-source rows are computed across one worker per CPU into a
// pre-sized slice, then folded serially in eyeball order, so weighted
// sums and CDF inputs are byte-identical to a serial pass.
func CompareRouting(g *topology.Graph, d *anycastnet.Deployment, model *latency.Model) (RoutingComparison, error) {
	eyeballs := g.Eyeballs()
	type row struct {
		ok              bool
		aMs, oMs, gapMs float64
		w               float64
		atOpt           bool
	}
	rows := make([]row, len(eyeballs))
	par.Do(len(eyeballs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e := eyeballs[i]
			as := g.AS(e)
			if as.UserWeight <= 0 {
				continue
			}
			rt, ok := d.Route(e)
			if !ok {
				continue
			}
			// Optimal latency excludes circuity and hop penalties beyond
			// the minimum 2-AS handoff, keeping only access delay (which
			// no routing change removes).
			optSite, optKm := d.ClosestGlobalSiteTo(as.Point())
			if optSite < 0 {
				continue
			}
			aMs := model.BaseRTTMs(e, rt)
			oMs := geo.RTTLowerBoundMs(optKm) + model.AccessDelayMs(e)
			gap := aMs - oMs
			if gap < 0 {
				gap = 0
			}
			rows[i] = row{
				ok: true, aMs: aMs, oMs: oMs, gapMs: gap,
				w: as.UserWeight, atOpt: rt.SiteID == optSite,
			}
		}
	})
	var actual, optimal, gaps []stats.WeightedValue
	var atOpt, total float64
	for _, r := range rows {
		if !r.ok {
			continue
		}
		actual = append(actual, stats.WeightedValue{Value: r.aMs, Weight: r.w})
		optimal = append(optimal, stats.WeightedValue{Value: r.oMs, Weight: r.w})
		gaps = append(gaps, stats.WeightedValue{Value: r.gapMs, Weight: r.w})
		total += r.w
		if r.atOpt {
			atOpt += r.w
		}
	}
	aCDF, err := stats.NewCDF(actual)
	if err != nil {
		return RoutingComparison{}, err
	}
	oCDF, err := stats.NewCDF(optimal)
	if err != nil {
		return RoutingComparison{}, err
	}
	gCDF, err := stats.NewCDF(gaps)
	if err != nil {
		return RoutingComparison{}, err
	}
	rc := RoutingComparison{
		ActualMedianMs:  aCDF.Median(),
		OptimalMedianMs: oCDF.Median(),
		MedianGapMs:     gCDF.Median(),
		P95GapMs:        gCDF.Quantile(0.95),
	}
	if total > 0 {
		rc.AtOptimalShare = atOpt / total
	}
	return rc, nil
}

// UnicastBaseline evaluates the best single-site deployment: the latency
// users would see if the service ran from one optimally placed site
// (the degenerate anycast the SIGCOMM'18 critique implicitly compares
// against). It returns the user-weighted median RTT of the best of the
// deployment's sites when used alone.
func UnicastBaseline(g *topology.Graph, d *anycastnet.Deployment, model *latency.Model) (bestSite int, medianMs float64) {
	// Sites are independent, so each worker evaluates whole sites; the
	// winner is then picked serially in site order, preserving the serial
	// tie-break (first site wins on equal medians).
	medians := make([]float64, len(d.Sites))
	par.Do(len(d.Sites), func(lo, hi int) {
		for si := lo; si < hi; si++ {
			s := d.Sites[si]
			medians[si] = math.Inf(1)
			if !s.Global {
				continue
			}
			site := d.SitePoint(si)
			var obs []stats.WeightedValue
			for _, e := range g.Eyeballs() {
				as := g.AS(e)
				if as.UserWeight <= 0 {
					continue
				}
				// Unicast to one site: direct great-circle at best case
				// plus access delay — generous to unicast, so anycast
				// wins are conservative.
				ms := geo.RTTLowerBoundMs(as.Point().DistanceKm(site)) + model.AccessDelayMs(e)
				obs = append(obs, stats.WeightedValue{Value: ms, Weight: as.UserWeight})
			}
			cdf, err := stats.NewCDF(obs)
			if err != nil {
				continue
			}
			medians[si] = cdf.Median()
		}
	})
	bestSite, medianMs = -1, math.Inf(1)
	for si := range d.Sites {
		if medians[si] < medianMs {
			bestSite, medianMs = d.Sites[si].ID, medians[si]
		}
	}
	return bestSite, medianMs
}
