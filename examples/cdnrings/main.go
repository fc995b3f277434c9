// cdnrings walks the CDN side of the paper: per-ring latency from both
// measurement systems, the per-page-load cost that gives the CDN its
// incentive (Fig 4), and the low inflation that results (Fig 5).
package main

import (
	"context"
	"fmt"
	"log"

	"anycastctx"
	"anycastctx/internal/cdn"
	"anycastctx/internal/core"
	"anycastctx/internal/stage"
	"anycastctx/internal/stats"
)

const rttsPerPage = 10 // Appendix C lower bound

func main() {
	ctx := context.Background()
	w, err := anycastctx.NewWorld(anycastctx.TestScaleConfig(9))
	if err != nil {
		log.Fatal(err)
	}
	if err := w.Demand(ctx, stage.CDN, stage.Locations); err != nil {
		log.Fatal(err)
	}
	logs := w.CDN().ServerSideLogsCtx(ctx, w.Locations(), 99)
	client := w.CDN().ClientMeasurementsCtx(ctx, w.Locations(), 99)

	fmt.Println("per-ring latency and inflation (user-weighted):")
	fmt.Printf("  %-6s %6s %14s %16s %12s %12s\n",
		"ring", "sites", "median ms/RTT", "ms/page load", "zero-infl", "infl>30ms")
	for _, ring := range w.CDN().Rings {
		var obs []stats.WeightedValue
		for _, r := range logs {
			if r.Ring == ring.Name {
				obs = append(obs, stats.WeightedValue{Value: r.MedianRTTMs, Weight: r.Location.Users})
			}
		}
		cdf, err := stats.NewCDF(obs)
		if err != nil {
			log.Fatal(err)
		}
		giObs := core.CDNGeoInflation(logs, ring)
		liCDF, err := stats.NewCDF(core.CDNLatencyInflation(logs, ring))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-6s %6d %14.1f %16.0f %11.1f%% %11.1f%%\n",
			ring.Name, ring.Size(), cdf.Median(), cdf.Median()*rttsPerPage,
			100*core.Efficiency(giObs, 1), 100*liCDF.FractionAbove(30))
	}

	// Fig 4b: does growing the ring ever hurt a location?
	names := make([]string, len(w.CDN().Rings))
	for i, r := range w.CDN().Rings {
		names[i] = r.Name
	}
	deltas := cdn.RingDeltas(client, names, rttsPerPage)
	var regress []stats.WeightedValue
	for _, d := range deltas {
		regress = append(regress, stats.WeightedValue{Value: -d.DeltaMs, Weight: d.Location.Users})
	}
	cdf, err := stats.NewCDF(regress)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nring upgrades (smaller→bigger) per RTT: p50 regression %.1f ms, p90 %.1f ms, p99 %.1f ms\n",
		cdf.Median(), cdf.Quantile(0.9), cdf.Quantile(0.99))
	fmt.Println("(negative = the bigger ring is faster; upgrades almost never hurt)")
}
