package anycastctx

// Additional studies the paper reports in passing: temporal site affinity
// (§8 confirms prior work that affinity is high over the DITL window) and
// the deployment-growth backdrop of §7.3 (root sites more than doubled,
// 516→1367, over five years; the CDN's front-ends also doubled).

import (
	"context"
	"fmt"

	"anycastctx/internal/anycastnet"
	"anycastctx/internal/cdn"
	"anycastctx/internal/core"
	"anycastctx/internal/geo"
	"anycastctx/internal/report"
	"anycastctx/internal/stage"
)

func init() {
	register(Experiment{
		ID:         "affinity",
		Title:      "§8: anycast site affinity",
		PaperClaim: "affinity is high over the DITL window",
		Needs:      []stage.ID{stage.Campaign},
		Run:        runAffinity,
	})
	register(Experiment{
		ID:         "growth",
		Title:      "§7.3: root deployment growth",
		PaperClaim: "sites 516→1367 over five years; more sites buy latency and coverage",
		Needs:      []stage.ID{stage.Topology, stage.Locations},
		Run:        runGrowth,
	})
}

func runAffinity(ctx context.Context, w *World, seed int64) (Result, error) {
	t := report.Table{
		Title:   "Site affinity per letter over a 48-hour window (0.5%/hour flap rate)",
		Headers: []string{"Letter", "Stable /24s", "Mean affinity", "Flaps"},
	}
	var worstStable float64 = 1
	for li, name := range w.Campaign().LetterNames {
		res, err := w.Campaign().Affinity(li, 0.005, 48, seed)
		if err != nil {
			return Result{}, fmt.Errorf("letter %s: %w", name, err)
		}
		t.AddRow(name,
			fmt.Sprintf("%.1f%%", 100*res.StableShare),
			fmt.Sprintf("%.3f", res.MeanAffinity),
			fmt.Sprintf("%d", res.Flaps))
		if res.StableShare < worstStable {
			worstStable = res.StableShare
		}
	}
	return Result{
		Measured: fmt.Sprintf("worst letter keeps %.0f%% of /24s fully stable over 48h", 100*worstStable),
		Output:   t.Render(),
	}, nil
}

// rootGrowthTimeline approximates §7.3's numbers: total root sites by year.
var rootGrowthTimeline = []struct {
	Year  int
	Sites int
}{
	{2016, 516},
	{2017, 680},
	{2018, 850},
	{2019, 1020},
	{2020, 1190},
	{2021, 1367},
}

func runGrowth(ctx context.Context, w *World, _ int64) (Result, error) {
	g, sites := ablGraph(w, 40)
	model := w.Model()
	t := report.Table{
		Title:   "Root DNS growth (scaled to one aggregate deployment, global sites ~ total/4)",
		Headers: []string{"Year", "Total sites", "Median RTT (ms)", "Users within 500km", "At closest site"},
	}
	type point struct {
		med, cov float64
	}
	var first, last point
	var specs []anycastnet.LetterSpec
	for _, yr := range rootGrowthTimeline {
		// The paper counts global+local; roughly a quarter of root sites
		// were global, which is what the latency analysis uses.
		globals := yr.Sites / 4
		specs = append(specs, anycastnet.LetterSpec{
			Letter:      fmt.Sprintf("roots%d", yr.Year),
			GlobalSites: globals,
			TotalSites:  globals,
			Openness:    0.28,
		})
	}
	deps, err := ablDeploy(g, specs, sites)
	if err != nil {
		return Result{}, err
	}
	locs := w.Locations()
	for i, d := range deps {
		yr := rootGrowthTimeline[i]
		rc, err := core.CompareRouting(g, d, model)
		if err != nil {
			return Result{}, err
		}
		cov := core.CoverageCurve(core.GlobalSiteLocs(d.Sites), locs, []float64{500})
		t.AddRow(fmt.Sprintf("%d", yr.Year), fmt.Sprintf("%d", yr.Sites),
			fmt.Sprintf("%.1f", rc.ActualMedianMs),
			fmt.Sprintf("%.1f%%", 100*cov[0].P),
			fmt.Sprintf("%.1f%%", 100*rc.AtOptimalShare))
		if i == 0 {
			first = point{rc.ActualMedianMs, cov[0].P}
		}
		last = point{rc.ActualMedianMs, cov[0].P}
	}
	return Result{
		Measured: fmt.Sprintf("2016→2021: median RTT %.0f→%.0f ms, 500km coverage %.0f%%→%.0f%%",
			first.med, last.med, 100*first.cov, 100*last.cov),
		Output: t.Render(),
	}, nil
}

func init() {
	register(Experiment{
		ID:         "apps",
		Title:      "§2.2: regulatory rings",
		PaperClaim: "ring choice follows compliance, not performance",
		Needs:      []stage.ID{stage.CDN, stage.Locations},
		Run:        runApps,
	})
}

func runApps(ctx context.Context, w *World, seed int64) (Result, error) {
	rows, err := w.CDN().AppLatencies(ctx, w.Locations(), cdn.PaperApps(), seed)
	if err != nil {
		return Result{}, err
	}
	t := report.Table{
		Title:   "Application classes pinned to compliance rings (user-weighted medians)",
		Headers: []string{"Application", "Ring", "Traffic share", "Median RTT (ms)", "Regulatory cost (ms/RTT)"},
	}
	var worst float64
	for _, r := range rows {
		t.AddRow(r.App.Name, r.App.Ring,
			fmt.Sprintf("%.0f%%", 100*r.App.TrafficShare),
			fmt.Sprintf("%.1f", r.MedianRTTMs),
			fmt.Sprintf("%.1f", r.RegulatoryCostMs))
		if r.RegulatoryCostMs > worst {
			worst = r.RegulatoryCostMs
		}
	}
	mix := cdn.TrafficWeightedMedianMs(rows)
	return Result{
		Measured: fmt.Sprintf("strictest class pays %.1f ms/RTT over R110; traffic-weighted median %.1f ms",
			worst, mix),
		Output: t.Render(),
	}, nil
}

func init() {
	register(Experiment{
		ID:         "continents",
		Title:      "Appendix F: per-continent breakdown",
		PaperClaim: "regional variation follows infrastructure density",
		Needs:      []stage.ID{stage.CDN, stage.Campaign, stage.Join, stage.Locations, stage.ServerLogs},
		Run:        runContinents,
	})
}

func runContinents(ctx context.Context, w *World, seed int64) (Result, error) {
	logs := w.ServerLogs()
	big := w.CDN().Rings[len(w.CDN().Rings)-1]
	rootObs := core.GeoInflationAllRoots(w.Campaign(), w.JoinCtx(ctx))

	// Per-continent aggregates for the CDN (largest ring).
	type agg struct {
		rtt, infl, users float64
	}
	cdnByCont := map[geo.Continent]*agg{}
	for _, r := range logs {
		if r.Ring != big.Name {
			continue
		}
		cont := w.Regions()[r.Location.Region].Continent
		a := cdnByCont[cont]
		if a == nil {
			a = &agg{}
			cdnByCont[cont] = a
		}
		a.rtt += r.MedianRTTMs * r.Location.Users
		a.users += r.Location.Users
	}
	// Root inflation per continent: map joined recursives to continents.
	rootByCont := map[geo.Continent]*agg{}
	for i, row := range w.JoinCtx(ctx).Rows {
		rec := w.Pop().Recursives[row.RecIdx]
		host := w.Graph().AS(rec.ASN)
		if host == nil || host.Region < 0 {
			continue
		}
		cont := w.Regions()[host.Region].Continent
		a := rootByCont[cont]
		if a == nil {
			a = &agg{}
			rootByCont[cont] = a
		}
		if i < len(rootObs) {
			a.infl += rootObs[i].Value * rootObs[i].Weight
			a.users += rootObs[i].Weight
		}
	}

	t := report.Table{
		Title:   "Per-continent user experience (user-weighted means)",
		Headers: []string{"Continent", "CDN RTT (ms)", "Root geo inflation (ms)"},
	}
	var best, worst float64 = 1e18, 0
	for cont := geo.Continent(0); cont < 7; cont++ {
		c := cdnByCont[cont]
		r := rootByCont[cont]
		if c == nil || c.users == 0 {
			continue
		}
		rtt := c.rtt / c.users
		infl := "-"
		if r != nil && r.users > 0 {
			infl = fmt.Sprintf("%.1f", r.infl/r.users)
		}
		t.AddRow(cont.String(), fmt.Sprintf("%.1f", rtt), infl)
		if rtt < best {
			best = rtt
		}
		if rtt > worst {
			worst = rtt
		}
	}
	return Result{
		Measured: fmt.Sprintf("CDN mean RTT spans %.0f-%.0f ms across continents", best, worst),
		Output:   t.Render(),
	}, nil
}
