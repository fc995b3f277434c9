package core

import (
	"anycastctx/internal/bgp"
	"anycastctx/internal/cdn"
	"anycastctx/internal/ditl"
	"anycastctx/internal/geo"
	"anycastctx/internal/stats"
	"anycastctx/internal/users"
)

// QueryClass selects which query volumes an amortization counts.
type QueryClass uint8

// Query classes for amortization.
const (
	// ValidOnly counts post-preprocessing volume (Fig 3).
	ValidOnly QueryClass = iota
	// IncludingInvalid adds junk and PTR volume (Fig 8's sensitivity).
	IncludingInvalid
	// IdealOncePerTTL replaces measured volume with the hypothetical
	// once-per-TTL-per-TLD rate (Fig 3's Ideal line).
	IdealOncePerTTL
)

// QueriesPerUserCDN amortizes root query volume over CDN user counts:
// each joined recursive contributes one observation (its daily queries per
// user) weighted by its users (Fig 3's CDN line; pass a by-IP join for
// Fig 9).
func QueriesPerUserCDN(c *ditl.Campaign, j *ditl.Join, class QueryClass) []stats.WeightedValue {
	out := make([]stats.WeightedValue, 0, len(j.Rows))
	for _, row := range j.Rows {
		vol := row.QueriesPerDay
		switch class {
		case IncludingInvalid:
			r := c.Rates[row.RecIdx]
			extra := r.RootInvalidPerDay + r.RootPTRPerDay
			if j.ByIP && r.RootValidPerDay > 0 {
				extra *= row.QueriesPerDay / r.RootValidPerDay
			}
			vol += extra
		case IdealOncePerTTL:
			vol = c.Rates[row.RecIdx].IdealPerDay
		}
		if row.Users <= 0 {
			continue
		}
		out = append(out, stats.WeightedValue{Value: vol / row.Users, Weight: row.Users})
	}
	return out
}

// QueriesPerUserAPNIC amortizes per-AS volumes over APNIC user estimates
// (Fig 3's APNIC line). Recursives in ASes without an APNIC estimate are
// skipped, as in the paper.
func QueriesPerUserAPNIC(c *ditl.Campaign, apnic *users.APNICCounts, class QueryClass) []stats.WeightedValue {
	type asAgg struct {
		valid, invalid, ideal float64
	}
	perAS := map[int32]*asAgg{}
	for ri := range c.Pop.Recursives {
		rec := &c.Pop.Recursives[ri]
		agg := perAS[int32(rec.ASN)]
		if agg == nil {
			agg = &asAgg{}
			perAS[int32(rec.ASN)] = agg
		}
		r := c.Rates[ri]
		agg.valid += r.RootValidPerDay
		agg.invalid += r.RootInvalidPerDay + r.RootPTRPerDay
		agg.ideal += r.IdealPerDay
	}
	out := make([]stats.WeightedValue, 0, len(perAS))
	for asn, est := range apnic.ByASN {
		agg, ok := perAS[int32(asn)]
		if !ok || est <= 0 {
			continue
		}
		vol := agg.valid
		switch class {
		case IncludingInvalid:
			vol += agg.invalid
		case IdealOncePerTTL:
			vol = agg.ideal
		}
		out = append(out, stats.WeightedValue{Value: vol / est, Weight: est})
	}
	return out
}

// FavoriteSiteFractions computes Eq. 3 for one letter: per /24, the
// fraction of its queries that do NOT reach its most popular site
// (Fig 10's x-axis), unweighted over /24s.
func FavoriteSiteFractions(c *ditl.Campaign, li int) []stats.WeightedValue {
	out := make([]stats.WeightedValue, 0, c.NumRecursives())
	for ri := range c.Pop.Recursives {
		a := c.At(li, ri)
		if !a.Reachable {
			continue
		}
		out = append(out, stats.WeightedValue{Value: 1 - a.FavoriteFrac(), Weight: 1})
	}
	return out
}

// CoverageCurve computes Fig 7b: the share of users whose closest site in
// the deployment lies within each radius. Sites are given as locations
// (global sites for letters, ring front-ends for the CDN); users as
// ⟨region, AS⟩ locations.
func CoverageCurve(siteLocs []geo.Coord, locs []cdn.Location, radiiKm []float64) []stats.Point {
	if len(siteLocs) == 0 || len(locs) == 0 {
		return nil
	}
	var total float64
	sites := geo.NewIndex(siteLocs)
	minDists := make([]float64, len(locs))
	for i, l := range locs {
		_, minDists[i] = sites.Nearest(geo.Prepare(l.Loc))
		total += l.Users
	}
	out := make([]stats.Point, len(radiiKm))
	for ri, r := range radiiKm {
		var covered float64
		for i, l := range locs {
			if minDists[i] <= r {
				covered += l.Users
			}
		}
		out[ri] = stats.Point{X: r, P: covered / total}
	}
	return out
}

// GlobalSiteLocs extracts the global sites' locations from a deployment's
// site list.
func GlobalSiteLocs(sites []bgp.Site) []geo.Coord {
	out := make([]geo.Coord, 0, len(sites))
	for _, s := range sites {
		if s.Global {
			out = append(out, s.Loc)
		}
	}
	return out
}
