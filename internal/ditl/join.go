package ditl

import (
	"context"

	"anycastctx/internal/ipaddr"
	"anycastctx/internal/obs"
	"anycastctx/internal/par"
	"anycastctx/internal/users"
)

// Observability handles: join row counts and the per-/24 joined user-count
// distribution (how many users each retained /24 represents).
var (
	obsJoins        = obs.NewCounter("ditl.joins_computed")
	obsJoinRows     = obs.NewCounter("ditl.join_rows")
	obsJoinRowUsers = obs.NewHistogram("ditl.join_users_per_row")
)

// JoinedRow is one recursive of the DITL∩CDN dataset: query volume joined
// with a user count.
type JoinedRow struct {
	RecIdx int
	Key    ipaddr.Slash24Key
	// QueriesPerDay is the valid (post-preprocessing) daily root volume
	// attributed to this row across all letters.
	QueriesPerDay float64
	// Users is the joined user count (CDN-observed).
	Users float64
}

// Join is the query-volume/user-count join.
type Join struct {
	Rows []JoinedRow
	// ByIP reports whether the join was exact-IP (Fig 9) instead of /24.
	ByIP bool
}

// joinRow evaluates the join predicate for one recursive: the joined row
// and whether it is retained. It reads the CDN maps read-only and draws no
// randomness, so it is safe to call from parallel workers.
func (c *Campaign) joinRow(cdn *users.CDNCounts, byIP bool, ri int) (JoinedRow, bool) {
	rec := &c.Pop.Recursives[ri]
	vol := c.Rates[ri].RootValidPerDay
	if c.Rates[ri].RootTotalPerDay() < 0.5 {
		return JoinedRow{}, false // invisible in DITL (forwarder)
	}
	if byIP {
		// Only volume from egress IPs Microsoft observed, joined with
		// users on exactly those IPs.
		egress := c.Egress(ri)
		if len(egress) == 0 {
			return JoinedRow{}, false
		}
		matched := 0
		var matchedUsers float64
		for _, ip := range egress {
			if u, ok := cdn.ByIP[ip]; ok {
				matched++
				matchedUsers += u
			}
		}
		if matched == 0 || matchedUsers <= 0 {
			return JoinedRow{}, false
		}
		return JoinedRow{
			RecIdx:        ri,
			Key:           rec.Key,
			QueriesPerDay: vol * float64(matched) / float64(len(egress)),
			Users:         matchedUsers,
		}, true
	}
	u, ok := cdn.By24[rec.Key]
	if !ok || u <= 0 {
		return JoinedRow{}, false
	}
	return JoinedRow{
		RecIdx:        ri,
		Key:           rec.Key,
		QueriesPerDay: vol,
		Users:         u,
	}, true
}

// JoinCDNCtx joins valid query volumes with CDN user counts at the /24
// level (§2.1's DITL∩CDN), or at exact-IP granularity when byIP is set
// (the Appendix B.2 sensitivity analysis, Fig 9).
//
// It streams: a parallel marking pass over the recursives, a prefix sum,
// and a parallel fill into an exactly-sized row slice, preserving input
// order. Unlike an append loop this never over-allocates (append growth
// can strand almost 2x the final size) and does no per-row float
// arithmetic outside joinRow, so the output is byte-identical to a serial
// join (the test oracle joinCDNSerial). A traced run records
// "ditl.join_cdn" with per-worker "ditl.join_cdn.shard" children.
func (c *Campaign) JoinCDNCtx(ctx context.Context, cdn *users.CDNCounts, byIP bool) *Join {
	ctx, join := obs.StartSpanCtx(ctx, "ditl.join_cdn")
	defer join.End()
	j := &Join{ByIP: byIP}
	n := c.numRecs
	include := make([]bool, n)
	par.DoCtx(ctx, n, func(ctx context.Context, lo, hi int) {
		_, sp := obs.StartSpanCtx(ctx, "ditl.join_cdn.shard")
		defer sp.End()
		for ri := lo; ri < hi; ri++ {
			_, ok := c.joinRow(cdn, byIP, ri)
			include[ri] = ok
		}
	})
	offs := make([]uint32, n+1)
	for ri, ok := range include {
		offs[ri+1] = offs[ri]
		if ok {
			offs[ri+1]++
		}
	}
	rows := make([]JoinedRow, offs[n])
	par.DoCtx(ctx, n, func(ctx context.Context, lo, hi int) {
		_, sp := obs.StartSpanCtx(ctx, "ditl.join_cdn.shard")
		defer sp.End()
		for ri := lo; ri < hi; ri++ {
			if include[ri] {
				rows[offs[ri]], _ = c.joinRow(cdn, byIP, ri)
			}
		}
	})
	j.Rows = rows
	obsJoins.Inc()
	obsJoinRows.Add(uint64(len(j.Rows)))
	for _, row := range j.Rows {
		obsJoinRowUsers.Observe(row.Users)
	}
	return j
}

// OverlapStats reproduces Table 4: how much of each dataset the join
// retains, with and without /24 aggregation.
type OverlapStats struct {
	// DITLRecursives is the fraction of DITL query sources (recursive and
	// junk alike) matched by CDN user data.
	DITLRecursives float64
	// DITLVolume is the fraction of DITL query volume matched.
	DITLVolume float64
	// CDNRecursives is the fraction of CDN-observed resolvers seen in DITL.
	CDNRecursives float64
	// CDNVolume is the fraction of CDN-counted users whose resolver was
	// seen in DITL.
	CDNVolume float64
}

// Overlap computes Table 4's row for either join granularity.
func (c *Campaign) Overlap(cdn *users.CDNCounts, byIP bool) OverlapStats {
	var st OverlapStats
	if byIP {
		ditlSources := len(c.JunkSources)
		matchedSources := 0
		var vol, matchedVol float64
		matchedIPs := map[ipaddr.Addr]bool{}
		for ri := 0; ri < c.numRecs; ri++ {
			egress := c.Egress(ri)
			ditlSources += len(egress)
			v := c.Rates[ri].RootValidPerDay
			vol += v
			matched := 0
			for _, ip := range egress {
				if _, ok := cdn.ByIP[ip]; ok {
					matched++
					matchedIPs[ip] = true
				}
			}
			matchedSources += matched
			if len(egress) > 0 {
				matchedVol += v * float64(matched) / float64(len(egress))
			}
		}
		var cdnUsers, cdnMatchedUsers float64
		for ip, u := range cdn.ByIP {
			cdnUsers += u
			if matchedIPs[ip] {
				cdnMatchedUsers += u
			}
		}
		if ditlSources > 0 {
			st.DITLRecursives = float64(matchedSources) / float64(ditlSources)
		}
		if vol > 0 {
			st.DITLVolume = matchedVol / vol
		}
		if n := len(cdn.ByIP); n > 0 {
			st.CDNRecursives = float64(len(matchedIPs)) / float64(n)
		}
		if cdnUsers > 0 {
			st.CDNVolume = cdnMatchedUsers / cdnUsers
		}
		return st
	}

	// /24-level join. Junk sources sit in distinct /24 blocks by
	// construction (AllocSlash24s hands out disjoint prefixes), so their
	// /24 count needs no dedup map; and each recursive owns a distinct
	// /24 key, so matched CDN users can accumulate inline instead of via
	// a matched-key set replayed over the whole CDN map.
	ditl24 := len(c.JunkSources)
	matched24 := 0
	var vol, matchedVol float64
	var cdnMatchedUsers float64
	for ri := range c.Pop.Recursives {
		rec := &c.Pop.Recursives[ri]
		if c.Rates[ri].RootTotalPerDay() < 0.5 {
			continue // forwarders never reach the roots
		}
		ditl24++
		v := c.Rates[ri].RootValidPerDay
		vol += v
		if u, ok := cdn.By24[rec.Key]; ok {
			matched24++
			matchedVol += v
			cdnMatchedUsers += u
		}
	}
	var cdnUsers float64
	for _, u := range cdn.By24 {
		cdnUsers += u
	}
	if ditl24 > 0 {
		st.DITLRecursives = float64(matched24) / float64(ditl24)
	}
	if vol > 0 {
		st.DITLVolume = matchedVol / vol
	}
	if n := len(cdn.By24); n > 0 {
		st.CDNRecursives = float64(matched24) / float64(n)
	}
	if cdnUsers > 0 {
		st.CDNVolume = cdnMatchedUsers / cdnUsers
	}
	return st
}
