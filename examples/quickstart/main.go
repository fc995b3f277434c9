// Quickstart: build a small simulated Internet, deploy the two anycast
// systems, and compare their inflation — the paper's headline result in
// ~40 lines of API use.
package main

import (
	"context"
	"fmt"
	"log"

	"anycastctx"
	"anycastctx/internal/core"
	"anycastctx/internal/stage"
	"anycastctx/internal/stats"
)

func main() {
	// A scaled-down world builds in a few seconds and preserves every
	// qualitative behavior; Scale: 1 is the paper-scale environment.
	// Stages materialize only when demanded: this program reads these.
	ctx := context.Background()
	w, err := anycastctx.NewWorld(anycastctx.TestScaleConfig(1))
	if err != nil {
		log.Fatal(err)
	}
	if err := w.Demand(ctx, stage.Topology, stage.Population, stage.Letters, stage.Campaign,
		stage.Join, stage.CDN, stage.Locations); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("world: %d ASes, %d root letters, CDN with %d rings, %.0fM users\n\n",
		w.Graph().Len(), len(w.Letters()), len(w.CDN().Rings), w.Pop().TotalUsers/1e6)

	// Root DNS: geographic inflation per query, averaged over each
	// recursive's letter preference (Fig 2a's All Roots line).
	join := w.JoinCtx(ctx)
	rootObs := core.GeoInflationAllRoots(w.Campaign(), join)
	rootCDF, err := stats.NewCDF(rootObs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("root DNS (all letters, per query):")
	fmt.Printf("  users with zero inflation:   %5.1f%%\n", 100*core.Efficiency(rootObs, 1))
	fmt.Printf("  median inflation:            %5.1f ms\n", rootCDF.Median())
	fmt.Printf("  users above 20 ms:           %5.1f%%\n\n", 100*rootCDF.FractionAbove(20))

	// CDN: the same methodology over the largest ring's server-side logs.
	logs := w.CDN().ServerSideLogsCtx(ctx, w.Locations(), w.Cfg.Seed)
	r110 := w.CDN().Rings[len(w.CDN().Rings)-1]
	cdnObs := core.CDNGeoInflation(logs, r110)
	cdnCDF, err := stats.NewCDF(cdnObs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CDN (%s, per RTT):\n", r110.Name)
	fmt.Printf("  users with zero inflation:   %5.1f%%\n", 100*core.Efficiency(cdnObs, 1))
	fmt.Printf("  median inflation:            %5.1f ms\n", cdnCDF.Median())
	fmt.Printf("  users above 20 ms:           %5.1f%%\n\n", 100*cdnCDF.FractionAbove(20))

	// ...but context matters: how often does each system's latency reach
	// a user? (queries/day for roots vs ~10 RTTs per page load for CDN)
	q, err := stats.NewCDF(core.QueriesPerUserCDN(w.Campaign(), join, core.ValidOnly))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("context: the median user waits for %.1f root queries per day,\n", q.Median())
	fmt.Println("but incurs CDN latency ~10x per page load — inflation matters where latency is felt.")
}
