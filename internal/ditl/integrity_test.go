package ditl

import (
	"math"
	"strings"
	"testing"
)

// TestIntegrityViolationsCleanAndFiring proves the store self-check both
// passes on a freshly built campaign and actually fires — with a message
// naming the broken column — for each class of corruption it guards. The
// pipeline-wide campaign-store checker (internal/check) folds these
// messages into its violation list, so a silent validator here would turn
// that checker into a no-op.
func TestIntegrityViolationsCleanAndFiring(t *testing.T) {
	f := buildFixture(t)
	c := f.camp
	if vs := c.IntegrityViolations(); len(vs) != 0 {
		t.Fatalf("fresh campaign has violations: %v", vs)
	}

	// Each case corrupts one cell or column, asserts the validator reports
	// it, then restores the original value so cases stay independent.
	tb := c.table
	t.Run("routeRTT not finite", func(t *testing.T) {
		old := tb.rtt[0]
		tb.rtt[0] = math.NaN()
		defer func() { tb.rtt[0] = old }()
		requireViolation(t, c, "route RTT[0]")
	})

	t.Run("routeIdx out of range", func(t *testing.T) {
		e := tableEntry(c, findCell(t, c, func(k int) bool { return cellEntry(c, k) != noRoute }))
		old := tb.ix.entry[e]
		tb.ix.entry[e] = uint32(len(tb.routes)) + 7
		defer func() { tb.ix.entry[e] = old }()
		requireViolation(t, c, "out of range")
	})

	t.Run("truncated route index stops at structural report", func(t *testing.T) {
		old := tb.ix.entry
		tb.ix.entry = tb.ix.entry[:len(tb.ix.entry)-1]
		defer func() { tb.ix.entry = old }()
		requireViolation(t, c, "route index has")
	})

	t.Run("altFrac without secondary site", func(t *testing.T) {
		k := findCell(t, c, func(k int) bool { return c.altSite[k] == noAltSite })
		old := c.altFrac[k]
		c.altFrac[k] = 0.25
		defer func() { c.altFrac[k] = old }()
		requireViolation(t, c, "without a secondary site")
	})

	t.Run("secondary site on unreachable cell", func(t *testing.T) {
		// The fixture reaches every cell, so manufacture the contradiction:
		// keep the secondary site but delete the route under it.
		e := tableEntry(c, findCell(t, c, func(k int) bool { return c.altSite[k] != noAltSite }))
		old := tb.ix.entry[e]
		tb.ix.entry[e] = noRoute
		defer func() { tb.ix.entry[e] = old }()
		requireViolation(t, c, "unreachable cell")
	})

	t.Run("secondary equals favorite", func(t *testing.T) {
		k := findCell(t, c, func(k int) bool { return c.altSite[k] != noAltSite })
		old := c.altSite[k]
		c.altSite[k] = uint32(tb.routes[cellEntry(c, k)].SiteID)
		defer func() { c.altSite[k] = old }()
		requireViolation(t, c, "secondary site equals favorite")
	})

	t.Run("truncated column stops at structural report", func(t *testing.T) {
		old := c.tcpMedian
		c.tcpMedian = c.tcpMedian[:len(c.tcpMedian)-1]
		defer func() { c.tcpMedian = old }()
		requireViolation(t, c, "column tcpMedian")
	})

	t.Run("egress offsets not monotone", func(t *testing.T) {
		old := c.egressOff[0]
		c.egressOff[0] = c.egressOff[len(c.egressOff)-1] + 1
		defer func() { c.egressOff[0] = old }()
		requireViolation(t, c, "egressOff")
	})

	if vs := c.IntegrityViolations(); len(vs) != 0 {
		t.Fatalf("campaign left corrupted after subtests: %v", vs)
	}
}

// findCell returns the first cell index satisfying pred, failing the test
// when the fixture has none (the corruption would be untestable).
func findCell(t *testing.T, c *Campaign, pred func(k int) bool) int {
	t.Helper()
	for k := 0; k < len(c.Letters)*c.numRecs; k++ {
		if pred(k) {
			return k
		}
	}
	t.Fatal("no cell in fixture matches the corruption predicate")
	return -1
}

// tableEntry returns the position in c's route index that cell k
// (li*NumRecursives()+ri) reads.
func tableEntry(c *Campaign, k int) int {
	li, ri := k/c.numRecs, k%c.numRecs
	return li*c.table.ix.nSrc + int(c.table.ix.pos[ri])
}

// cellEntry returns the route-table entry cell k reads.
func cellEntry(c *Campaign, k int) uint32 { return c.table.ix.entry[tableEntry(c, k)] }

func requireViolation(t *testing.T, c *Campaign, substr string) {
	t.Helper()
	vs := c.IntegrityViolations()
	if len(vs) == 0 {
		t.Fatalf("corruption went undetected (wanted message containing %q)", substr)
	}
	for _, v := range vs {
		if strings.Contains(v, substr) {
			return
		}
	}
	t.Fatalf("no violation mentions %q; got %v", substr, vs)
}
