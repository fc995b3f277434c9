// pageload reproduces Appendix C: estimating the number of round trips a
// web page load costs via the TCP slow-start model (Eq. 4) and parallel-
// connection accounting, then shows why that makes CDN latency matter and
// root DNS latency not (§4.3 / §5.1).
package main

import (
	"fmt"
	"math/rand"

	"anycastctx/internal/stats"
	"anycastctx/internal/webmodel"
)

func main() {
	rng := rand.New(rand.NewSource(12))

	// Single-connection intuition: Eq. 4.
	fmt.Println("Eq. 4: slow-start RTTs for one connection (15 kB initial window):")
	for _, kb := range []int{10, 15, 50, 200, 1000, 4000} {
		fmt.Printf("  %5d kB -> %2d RTTs\n", kb, webmodel.ConnRTTs(kb*1000, webmodel.DefaultInitialWindowBytes))
	}

	// The corpus sweep: 9 pages x 20 loads.
	res := webmodel.RunSweep(rng)
	vals := make([]float64, len(res.RTTsPerLoad))
	for i, r := range res.RTTsPerLoad {
		vals[i] = float64(r)
	}
	fmt.Printf("\npage corpus (%d loads): median %d RTTs; %.0f%% within 10, %.0f%% within 20\n",
		len(res.RTTsPerLoad), int(stats.Median(vals)), 100*res.FracWithin10, 100*res.FracWithin20)
	fmt.Printf("=> %d RTTs is a conservative per-page lower bound\n\n", res.LowerBound)

	// Put the two systems' latencies in user context.
	day := webmodel.TypicalBrowsingDay(rng)
	const (
		cdnRTT      = 35.0 // ms, a typical anycast CDN RTT
		rootQueryMs = 50.0 // ms, a typical root query
		rootPerDay  = 1.5  // queries/user/day (Fig 3)
	)
	cdnPerPage := cdnRTT * float64(res.LowerBound)
	ofLoad, ofBrowse := day.RootShare(rootQueryMs * rootPerDay)
	fmt.Printf("a %g ms CDN RTT costs %.0f ms on every page load (%d pages/day -> %.1f s/day)\n",
		cdnRTT, cdnPerPage, day.PageLoads, cdnPerPage*float64(day.PageLoads)/1000)
	fmt.Printf("the root DNS costs ~%.0f ms per day: %.2f%% of page-load time, %.3f%% of browsing time\n",
		rootQueryMs*rootPerDay, 100*ofLoad, 100*ofBrowse)
	fmt.Println("\n=> the CDN must fight inflation; the root DNS user barely sees it")
}
