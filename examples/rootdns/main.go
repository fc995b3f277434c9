// rootdns reproduces the paper's root-DNS story end to end: inflated
// routes to individual letters (Fig 2a) that nonetheless cost users almost
// nothing, because caching amortizes root queries to about one per user
// per day (Fig 3).
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
	ctx := context.Background()
	w, err := anycastctx.NewWorld(anycastctx.TestScaleConfig(7))
	if err != nil {
		log.Fatal(err)
	}
	if err := w.Demand(ctx, stage.Campaign, stage.UserCounts, stage.Join); err != nil {
		log.Fatal(err)
	}
	j := w.JoinCtx(ctx)

	fmt.Println("per-letter geographic inflation (Eq. 1), user-weighted:")
	fmt.Printf("  %-8s %6s %12s %12s %12s\n", "letter", "sites", "zero-infl", "median(ms)", ">20ms")
	for li, name := range w.Campaign().LetterNames {
		obs := core.GeoInflationLetter(w.Campaign(), li, j)
		cdf, err := stats.NewCDF(obs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-8s %6d %11.1f%% %12.1f %11.1f%%\n",
			name, w.Campaign().Letters[li].NumGlobalSites(),
			100*core.Efficiency(obs, 1), cdf.Median(), 100*cdf.FractionAbove(20))
	}
	all, err := stats.NewCDF(core.GeoInflationAllRoots(w.Campaign(), j))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %-8s %6s %11.1f%% %12.1f %11.1f%%\n\n", "ALL", "-",
		100*core.Efficiency(core.GeoInflationAllRoots(w.Campaign(), j), 1),
		all.Median(), 100*all.FractionAbove(20))

	fmt.Println("...yet users barely notice (queries amortized over caching):")
	for _, line := range []struct {
		name  string
		class core.QueryClass
	}{
		{"measured (CDN counts)", core.ValidOnly},
		{"measured + junk", core.IncludingInvalid},
		{"ideal once-per-TTL", core.IdealOncePerTTL},
	} {
		cdf, err := stats.NewCDF(core.QueriesPerUserCDN(w.Campaign(), j, line.class))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-22s median %8.3f queries/user/day (p90 %.1f)\n",
			line.name, cdf.Median(), cdf.Quantile(0.9))
	}

	apnic, err := stats.NewCDF(core.QueriesPerUserAPNIC(w.Campaign(), w.APNIC(), core.ValidOnly))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %-22s median %8.3f queries/user/day (independent dataset)\n",
		"measured (APNIC)", apnic.Median())
}
