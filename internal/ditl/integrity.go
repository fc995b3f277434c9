package ditl

import (
	"fmt"
	"math"
)

// IntegrityViolations validates the compact assignment store's internal
// structure — the parts no public accessor can reach: column lengths,
// the route table's shape and index bounds, secondary-site sanity, and
// the egress flat-store offsets. It returns one message per violated
// invariant (empty when the store is sound). The invariant checker
// (internal/check) folds these into the pipeline-wide check run;
// everything observable through At and Egress is cross-checked there
// against slow oracles instead.
func (c *Campaign) IntegrityViolations() []string {
	var out []string
	addf := func(format string, args ...any) {
		if len(out) < 32 {
			out = append(out, fmt.Sprintf(format, args...))
		}
	}

	nl, n := len(c.Letters), c.numRecs
	cells := nl * n
	t := c.table
	if n != len(c.Pop.Recursives) {
		addf("numRecs %d != %d population recursives", n, len(c.Pop.Recursives))
	}
	if len(c.Rates) != len(c.Pop.Recursives) {
		addf("%d rates for %d recursives", len(c.Rates), len(c.Pop.Recursives))
	}
	for _, col := range []struct {
		name string
		got  int
	}{
		{"altSite", len(c.altSite)},
		{"altFrac", len(c.altFrac)},
		{"tcpMedian", len(c.tcpMedian)},
		{"letterWeight", len(c.letterWeight)},
	} {
		name, got := col.name, col.got
		if got != cells {
			addf("column %s has %d entries, want %d letters x %d recursives = %d",
				name, got, nl, n, cells)
		}
	}
	if len(t.routes) != len(t.rtt) {
		addf("route table %d entries vs %d RTT entries", len(t.routes), len(t.rtt))
	}
	if len(t.ix.entry) != nl*t.ix.nSrc {
		addf("route index has %d cells, want %d letters x %d sources", len(t.ix.entry), nl, t.ix.nSrc)
	}
	if len(t.ix.pos) != n {
		addf("route index places %d recursives, want %d", len(t.ix.pos), n)
	}
	if len(out) > 0 {
		// Column or index shapes are off: the per-cell scans below would
		// index out of range, so stop at the structural report.
		return out
	}

	for i, rtt := range t.rtt {
		if math.IsNaN(rtt) || math.IsInf(rtt, 0) || rtt < 0 {
			addf("route RTT[%d] = %v not a finite non-negative RTT", i, rtt)
		}
	}
	for k := 0; k < cells; k++ {
		li, ri := k/n, k%n
		rix := t.ix.at(li, ri)
		if rix != noRoute && int(rix) >= len(t.routes) {
			addf("route index [letter %d, recursive %d] = %d out of range (%d routes)",
				li, ri, rix, len(t.routes))
			continue
		}
		alt := c.altSite[k]
		if alt == noAltSite {
			if c.altFrac[k] != 0 {
				addf("altFrac[letter %d, recursive %d] = %v without a secondary site",
					li, ri, c.altFrac[k])
			}
			continue
		}
		if rix == noRoute {
			addf("secondary site %d on unreachable cell [letter %d, recursive %d]", alt, li, ri)
			continue
		}
		if int(alt) >= len(c.Letters[li].Sites) {
			addf("altSite[letter %d, recursive %d] = %d out of range (%d sites)",
				li, ri, alt, len(c.Letters[li].Sites))
		}
		if int(alt) == t.routes[rix].SiteID {
			addf("secondary site equals favorite site %d [letter %d, recursive %d]", alt, li, ri)
		}
		if f := c.altFrac[k]; !(f >= 0 && f <= c.Cfg.SecondaryShareMax) {
			addf("altFrac[letter %d, recursive %d] = %v outside [0, %v]",
				li, ri, f, c.Cfg.SecondaryShareMax)
		}
	}

	if len(c.egressOff) != n+1 {
		addf("egressOff has %d offsets for %d recursives", len(c.egressOff), n)
	} else {
		if c.egressOff[0] != 0 {
			addf("egressOff[0] = %d, want 0", c.egressOff[0])
		}
		for ri := 0; ri < n; ri++ {
			if c.egressOff[ri+1] < c.egressOff[ri] {
				addf("egressOff not monotone at recursive %d: %d -> %d",
					ri, c.egressOff[ri], c.egressOff[ri+1])
			}
		}
		if got, want := int(c.egressOff[n]), len(c.egressFlat); got != want {
			addf("egressOff end %d != %d egress addresses", got, want)
		}
	}
	return out
}
