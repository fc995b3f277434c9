package anycastctx

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"anycastctx/internal/anycastnet"
	"anycastctx/internal/cdn"
	"anycastctx/internal/core"
	"anycastctx/internal/geo"
	"anycastctx/internal/report"
	"anycastctx/internal/rng"
	"anycastctx/internal/stage"
	"anycastctx/internal/stats"
	"anycastctx/internal/topology"
	"anycastctx/internal/webmodel"
)

// RTTsPerPageLoad is the Appendix C lower bound used to scale per-RTT
// latency to page-load latency (§5.1).
const RTTsPerPageLoad = 10

func init() {
	register(Experiment{
		ID:         "fig1",
		Title:      "Fig 1: CDN rings and user populations",
		PaperClaim: "front-ends deployed at user concentrations",
		Needs:      []stage.ID{stage.CDN, stage.Locations, stage.Regions},
		Run:        runFig1,
	})
	register(Experiment{
		ID:         "fig4a",
		Title:      "Fig 4a: CDN latency per page load (Atlas probes)",
		PaperClaim: "R28-R110 median gap ~100 ms per page load",
		Needs:      []stage.ID{stage.Atlas, stage.CDN},
		Run:        runFig4a,
	})
	register(Experiment{
		ID:         "fig4b",
		Title:      "Fig 4b: latency change per page load between rings",
		PaperClaim: "90% of locations regress <= a few ms per RTT, 99% <10 ms",
		Needs:      []stage.ID{stage.CDN, stage.ClientRows},
		Run:        runFig4b,
	})
	register(Experiment{
		ID:         "fig5a",
		Title:      "Fig 5a: CDN geographic inflation per RTT",
		PaperClaim: "85% of CDN users <10 ms; 97% of root users see some inflation",
		Needs:      []stage.ID{stage.CDN, stage.Campaign, stage.Join, stage.ServerLogs},
		Run:        runFig5a,
	})
	register(Experiment{
		ID:         "fig5b",
		Title:      "Fig 5b: CDN latency inflation per RTT",
		PaperClaim: "70% of users <30 ms, 90% <60 ms, 99% <100 ms; All-Roots per-query comparable",
		Needs:      []stage.ID{stage.CDN, stage.Campaign, stage.Join, stage.ServerLogs},
		Run:        runFig5b,
	})
	register(Experiment{
		ID:         "fig6a",
		Title:      "Fig 6a: AS path lengths to CDN vs roots",
		PaperClaim: "69% of CDN paths 2-AS; letters 5-44%",
		Needs:      []stage.ID{stage.Atlas, stage.CDN, stage.Letters},
		Run:        runFig6a,
	})
	register(Experiment{
		ID:         "fig6b",
		Title:      "Fig 6b: inflation vs AS path length",
		PaperClaim: "paths traversing fewer ASes are less inflated",
		Needs:      []stage.ID{stage.Atlas, stage.CDN, stage.Letters},
		Run:        runFig6b,
	})
	register(Experiment{
		ID:         "fig7a",
		Title:      "Fig 7a: latency and efficiency vs deployment size",
		PaperClaim: "larger deployments have lower latency but lower efficiency",
		Needs:      []stage.ID{stage.Atlas, stage.CDN, stage.Campaign, stage.Join, stage.Letters, stage.ServerLogs},
		Run:        runFig7a,
	})
	register(Experiment{
		ID:         "fig7b",
		Title:      "Fig 7b: coverage radius",
		PaperClaim: "All Roots: 91% of users within 500 km",
		Needs:      []stage.ID{stage.CDN, stage.Letters, stage.Locations},
		Run:        runFig7b,
	})
	register(Experiment{
		ID:         "fig14",
		Title:      "Fig 14: relative latency map for R110",
		PaperClaim: "latency falls near front-ends; front-ends sit near large populations",
		Needs:      []stage.ID{stage.CDN, stage.ClientRows, stage.Regions},
		Run:        runFig14,
	})
	register(Experiment{
		ID:         "appc",
		Title:      "Appendix C: RTTs per page load",
		PaperClaim: "few loads within 10 RTTs, ~90% within 20; 10 RTTs is the lower bound",
		Run:        runAppC,
	})
}

func runFig1(ctx context.Context, w *World, seed int64) (Result, error) {
	t := report.Table{
		Title:   "Fig 1: CDN rings and user coverage",
		Headers: []string{"Ring", "Front-ends", "Users within 500km", "Users within 1000km"},
	}
	radii := []float64{500, 1000}
	for _, ring := range w.CDN().Rings {
		curve := core.CoverageCurve(ring.SiteLocs, w.Locations(), radii)
		t.AddRow(ring.Name, fmt.Sprintf("%d", ring.Size()),
			fmt.Sprintf("%.1f%%", 100*curve[0].P), fmt.Sprintf("%.1f%%", 100*curve[1].P))
	}
	// Continental user split, to mirror the population circles.
	cont := report.Table{
		Title:   "User population by continent",
		Headers: []string{"Continent", "Users (M)", "Regions"},
	}
	type agg struct {
		users   float64
		regions map[int]bool
	}
	byCont := map[geo.Continent]*agg{}
	for _, loc := range w.Locations() {
		c := w.Regions()[loc.Region].Continent
		a := byCont[c]
		if a == nil {
			a = &agg{regions: map[int]bool{}}
			byCont[c] = a
		}
		a.users += loc.Users
		a.regions[loc.Region] = true
	}
	for c := geo.Continent(0); c < 7; c++ {
		a := byCont[c]
		if a == nil {
			continue
		}
		cont.AddRow(c.String(), fmt.Sprintf("%.0f", a.users/1e6), fmt.Sprintf("%d", len(a.regions)))
	}
	big := w.CDN().Rings[len(w.CDN().Rings)-1]
	curve := core.CoverageCurve(big.SiteLocs, w.Locations(), []float64{500})
	return Result{
		Measured: fmt.Sprintf("largest ring covers %.1f%% of users within 500 km", 100*curve[0].P),
		Output:   t.Render() + "\n" + cont.Render(),
	}, nil
}

func runFig4a(ctx context.Context, w *World, seed int64) (Result, error) {
	var series []report.Series
	medians := map[string]float64{}
	for _, ring := range w.CDN().Rings {
		pings := w.Atlas().Ping(ring.Deployment, 3, seed)
		if len(pings) == 0 {
			return Result{}, fmt.Errorf("no pings for ring %s", ring.Name)
		}
		obs := make([]stats.WeightedValue, len(pings))
		for i, p := range pings {
			obs[i] = stats.WeightedValue{Value: p.RTTMs * RTTsPerPageLoad, Weight: 1}
		}
		cdf, err := stats.NewCDF(obs)
		if err != nil {
			return Result{}, err
		}
		series = append(series, report.Series{Name: ring.Name, CDF: cdf})
		medians[ring.Name] = cdf.Median()
	}
	return Result{
		Measured: fmt.Sprintf("medians per page load: R28 %.0f ms vs R110 %.0f ms (gap %.0f ms)",
			medians["R28"], medians["R110"], medians["R28"]-medians["R110"]),
		Output: report.RenderCDFs("Fig 4a: CDF of probes vs per-page-load latency (ms)",
			"ms", msGrid(1200, 100), series),
	}, nil
}

func runFig4b(ctx context.Context, w *World, seed int64) (Result, error) {
	rows := w.ClientRows()
	names := make([]string, len(w.CDN().Rings))
	for i, r := range w.CDN().Rings {
		names[i] = r.Name
	}
	deltas := cdn.RingDeltas(rows, names, RTTsPerPageLoad)
	var series []report.Series
	for i := 0; i+1 < len(names); i++ {
		var obs []stats.WeightedValue
		for _, d := range deltas {
			if d.FromRing == names[i] {
				obs = append(obs, stats.WeightedValue{Value: d.PerPageMs, Weight: d.Location.Users})
			}
		}
		cdf, err := stats.NewCDF(obs)
		if err != nil {
			return Result{}, err
		}
		series = append(series, report.Series{Name: names[i] + "-" + names[i+1], CDF: cdf})
	}
	// Regression quantiles over all transitions (negative delta = larger
	// ring slower).
	var all []stats.WeightedValue
	for _, d := range deltas {
		all = append(all, stats.WeightedValue{Value: -d.DeltaMs, Weight: d.Location.Users})
	}
	allCDF, err := stats.NewCDF(all)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Measured: fmt.Sprintf("per-RTT regression: p90 %.1f ms, p99 %.1f ms",
			allCDF.Quantile(0.90), allCDF.Quantile(0.99)),
		Output: report.RenderCDFs("Fig 4b: CDF of locations vs latency change per page load (ms; smaller-bigger)",
			"ms", []float64{-100, -50, -10, 0, 10, 50, 100, 200, 400}, series),
	}, nil
}

func runFig5a(ctx context.Context, w *World, seed int64) (Result, error) {
	logs := w.ServerLogs()
	var series []report.Series
	var r110Eff float64
	for _, ring := range w.CDN().Rings {
		obs := core.CDNGeoInflation(logs, ring)
		cdf, err := stats.NewCDF(obs)
		if err != nil {
			return Result{}, err
		}
		series = append(series, report.Series{Name: ring.Name, CDF: cdf})
		if ring.Name == "R110" {
			r110Eff = core.Efficiency(obs, 1)
		}
	}
	// Root DNS comparison line (All Roots, same methodology).
	rootObs := core.GeoInflationAllRoots(w.Campaign(), w.JoinCtx(ctx))
	rootCDF, err := stats.NewCDF(rootObs)
	if err != nil {
		return Result{}, err
	}
	series = append(series, report.Series{Name: "RootDNS", CDF: rootCDF})
	return Result{
		Measured: fmt.Sprintf("R110: %.1f%% of users at zero inflation; roots: %.1f%%",
			100*r110Eff, 100*core.Efficiency(rootObs, 1)),
		Output: report.RenderCDFs("Fig 5a: CDF of users vs geographic inflation per RTT (ms)",
			"ms", msGrid(40, 5), series),
	}, nil
}

func runFig5b(ctx context.Context, w *World, seed int64) (Result, error) {
	logs := w.ServerLogs()
	var series []report.Series
	var r110 *stats.CDF
	for _, ring := range w.CDN().Rings {
		cdf, err := stats.NewCDF(core.CDNLatencyInflation(logs, ring))
		if err != nil {
			return Result{}, err
		}
		series = append(series, report.Series{Name: ring.Name, CDF: cdf})
		if ring.Name == "R110" {
			r110 = cdf
		}
	}
	rootCDF, err := stats.NewCDF(core.LatencyInflationAllRoots(w.Campaign(), w.JoinCtx(ctx), anycastnet.TCPLatencyLetters2018))
	if err != nil {
		return Result{}, err
	}
	series = append(series, report.Series{Name: "RootDNS", CDF: rootCDF})
	return Result{
		Measured: fmt.Sprintf("R110: %.0f%% <30 ms, %.0f%% <60 ms, %.0f%% <100 ms; roots <100 ms: %.0f%%",
			100*r110.P(30), 100*r110.P(60), 100*r110.P(100), 100*rootCDF.P(100)),
		Output: report.RenderCDFs("Fig 5b: CDF of users vs latency inflation per RTT (ms)",
			"ms", msGrid(200, 25), series),
	}, nil
}

// pathLenDist measures the traceroute path-length distribution toward a
// deployment, grouped by ⟨region, AS⟩ location with equal weight.
func pathLenDist(w *World, dep *anycastnet.Deployment) map[int]float64 {
	traces := w.Atlas().Traceroute(dep)
	type locKey struct {
		asn    topology.ASN
		region int
	}
	byLoc := map[locKey][]int{}
	var keys []locKey
	for _, tr := range traces {
		k := locKey{tr.Probe.ASN, tr.Probe.Region}
		if _, seen := byLoc[k]; !seen {
			keys = append(keys, k)
		}
		byLoc[k] = append(byLoc[k], tr.PathLen)
	}
	// Fold in sorted location order: float accumulation must not depend on
	// map iteration order or the rendered shares wobble in the last ulp.
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].asn != keys[j].asn {
			return keys[i].asn < keys[j].asn
		}
		return keys[i].region < keys[j].region
	})
	out := map[int]float64{}
	for _, k := range keys {
		lens := byLoc[k]
		w := 1.0 / float64(len(lens))
		for _, l := range lens {
			b := l
			if b > 5 {
				b = 5
			}
			out[b] += w
		}
	}
	var total float64
	for b := 0; b <= 5; b++ {
		total += out[b]
	}
	for k := range out {
		out[k] /= total
	}
	return out
}

func runFig6a(ctx context.Context, w *World, seed int64) (Result, error) {
	t := report.Table{
		Title:   "Fig 6a: AS path length distribution (share of locations)",
		Headers: []string{"Destination", "2 ASes", "3 ASes", "4 ASes", "5+ ASes"},
	}
	big := w.CDN().Rings[len(w.CDN().Rings)-1]
	cdnDist := pathLenDist(w, big.Deployment)
	addRow := func(name string, d map[int]float64) {
		t.AddRow(name,
			fmt.Sprintf("%.2f", d[2]), fmt.Sprintf("%.2f", d[3]),
			fmt.Sprintf("%.2f", d[4]), fmt.Sprintf("%.2f", d[5]))
	}
	addRow("CDN", cdnDist)
	letterShares := map[string]float64{}
	for _, letter := range w.Letters() {
		d := pathLenDist(w, letter)
		addRow("root "+letter.Name, d)
		letterShares[letter.Name] = d[2]
	}
	minL, maxL := 1.0, 0.0
	for _, v := range letterShares {
		if v < minL {
			minL = v
		}
		if v > maxL {
			maxL = v
		}
	}
	return Result{
		Measured: fmt.Sprintf("CDN 2-AS share %.0f%%; letters span %.0f%%-%.0f%%",
			100*cdnDist[2], 100*minL, 100*maxL),
		Output: t.Render(),
	}, nil
}

func runFig6b(ctx context.Context, w *World, seed int64) (Result, error) {
	t := report.Table{
		Title:   "Fig 6b: geographic inflation (ms) by AS path length",
		Headers: []string{"Destination", "2 ASes", "3 ASes", "4+ ASes"},
	}
	// Per probe location: route, path length, geographic inflation.
	inflByLen := func(dep *anycastnet.Deployment) map[int][]float64 {
		out := map[int][]float64{}
		seen := map[topology.ASN]bool{}
		for _, pr := range w.Atlas().Probes {
			if seen[pr.ASN] {
				continue
			}
			seen[pr.ASN] = true
			rt, ok := dep.Route(pr.ASN)
			if !ok {
				continue
			}
			src := w.Graph().AS(pr.ASN).Point()
			chosen := src.DistanceKm(dep.SitePoint(rt.SiteID))
			_, minD := dep.ClosestGlobalSiteTo(src)
			gi := geo.GeoRTTMs(chosen - minD)
			if gi < 0 {
				gi = 0
			}
			b := rt.PathLen
			if b > 4 {
				b = 4
			}
			out[b] = append(out[b], gi)
		}
		return out
	}
	med := func(v []float64) string {
		if len(v) == 0 {
			return "-"
		}
		b, err := stats.Box(v)
		if err != nil {
			return "-"
		}
		return fmt.Sprintf("%.1f", b.Median)
	}
	big := w.CDN().Rings[len(w.CDN().Rings)-1]
	var cdnRow, rootAgg map[int][]float64
	cdnRow = inflByLen(big.Deployment)
	t.AddRow("CDN", med(cdnRow[2]), med(cdnRow[3]), med(cdnRow[4]))
	rootAgg = map[int][]float64{}
	for _, letter := range w.Letters() {
		d := inflByLen(letter)
		t.AddRow("root "+letter.Name, med(d[2]), med(d[3]), med(d[4]))
		for k, v := range d {
			rootAgg[k] = append(rootAgg[k], v...)
		}
	}
	t.AddRow("All Roots", med(rootAgg[2]), med(rootAgg[3]), med(rootAgg[4]))
	m2, m4 := stats.Median(rootAgg[2]), stats.Median(rootAgg[4])
	return Result{
		Measured: fmt.Sprintf("root median inflation: %.1f ms at 2 ASes vs %.1f ms at 4+ ASes", m2, m4),
		Output:   t.Render(),
	}, nil
}

func runFig7a(ctx context.Context, w *World, seed int64) (Result, error) {
	t := report.Table{
		Title:   "Fig 7a: median latency and efficiency vs global sites",
		Headers: []string{"Deployment", "Global sites", "Median latency (ms)", "Efficiency (% users at closest site)"},
	}
	j := w.JoinCtx(ctx)
	type row struct {
		name string
		n    int
		med  float64
		eff  float64
	}
	var rows []row
	for li, letter := range w.Letters() {
		pings := w.Atlas().Ping(letter, 3, seed)
		vals := make([]float64, len(pings))
		for i, p := range pings {
			vals[i] = p.RTTMs
		}
		eff := core.Efficiency(core.GeoInflationLetter(w.Campaign(), li, j), 1)
		rows = append(rows, row{"root " + letter.Name, letter.NumGlobalSites(), stats.Median(vals), eff})
	}
	logs := w.ServerLogs()
	for _, ring := range w.CDN().Rings {
		var obs []stats.WeightedValue
		for _, lr := range logs {
			if lr.Ring == ring.Name {
				obs = append(obs, stats.WeightedValue{Value: lr.MedianRTTMs, Weight: lr.Location.Users})
			}
		}
		cdf, err := stats.NewCDF(obs)
		if err != nil {
			return Result{}, err
		}
		eff := core.Efficiency(core.CDNGeoInflation(logs, ring), 1)
		rows = append(rows, row{ring.Name, ring.Size(), cdf.Median(), eff})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].n < rows[j].n })
	for _, r := range rows {
		t.AddRow(r.name, fmt.Sprintf("%d", r.n), fmt.Sprintf("%.1f", r.med), fmt.Sprintf("%.1f%%", 100*r.eff))
	}
	small, large := rows[0], rows[len(rows)-1]
	return Result{
		Measured: fmt.Sprintf("%s(%d sites): %.0f ms / %.0f%% eff vs %s(%d): %.0f ms / %.0f%% eff",
			small.name, small.n, small.med, 100*small.eff, large.name, large.n, large.med, 100*large.eff),
		Output: t.Render(),
	}, nil
}

func runFig7b(ctx context.Context, w *World, seed int64) (Result, error) {
	radii := []float64{250, 500, 750, 1000, 1250, 1500, 1750, 2000}
	t := report.Table{Title: "Fig 7b: share of users within radius of a site", Headers: []string{"Deployment"}}
	for _, r := range radii {
		t.Headers = append(t.Headers, fmt.Sprintf("%.0fkm", r))
	}
	addCurve := func(name string, locs []geo.Coord) []stats.Point {
		curve := core.CoverageCurve(locs, w.Locations(), radii)
		row := []string{name}
		for _, p := range curve {
			row = append(row, fmt.Sprintf("%.2f", p.P))
		}
		t.AddRow(row...)
		return curve
	}
	var allSites []geo.Coord
	for _, l := range w.Letters() {
		allSites = append(allSites, core.GlobalSiteLocs(l.Sites)...)
	}
	allCurve := addCurve("All Roots", allSites)
	for _, ring := range w.CDN().Rings {
		addCurve(ring.Name, ring.SiteLocs)
	}
	for _, letter := range w.Letters() {
		if letter.NumGlobalSites() >= 20 {
			addCurve("root "+letter.Name, core.GlobalSiteLocs(letter.Sites))
		}
	}
	return Result{
		Measured: fmt.Sprintf("All Roots covers %.0f%% of users within 500 km", 100*allCurve[1].P),
		Output:   t.Render(),
	}, nil
}

func runFig14(ctx context.Context, w *World, seed int64) (Result, error) {
	big := w.CDN().Rings[len(w.CDN().Rings)-1]
	rows := w.ClientRows()
	// Aggregate per region: user-weighted mean of medians to R110.
	type agg struct {
		lat, users float64
	}
	byRegion := map[int]*agg{}
	for _, r := range rows {
		if r.Ring != big.Name {
			continue
		}
		a := byRegion[r.Location.Region]
		if a == nil {
			a = &agg{}
			byRegion[r.Location.Region] = a
		}
		a.lat += r.MedianRTTMs * r.Location.Users
		a.users += r.Location.Users
	}
	var maxLat float64
	for _, a := range byRegion {
		if l := a.lat / a.users; l > maxLat {
			maxLat = l
		}
	}
	t := report.Table{
		Title:   "Fig 14: relative latency to R110 by region (top regions by population)",
		Headers: []string{"Region", "Users (M)", "Latency (relative)", "Nearest front-end (km)"},
	}
	type regRow struct {
		id    int
		users float64
	}
	var regs []regRow
	for id, a := range byRegion {
		regs = append(regs, regRow{id, a.users})
	}
	sort.Slice(regs, func(i, j int) bool {
		if regs[i].users != regs[j].users {
			return regs[i].users > regs[j].users
		}
		return regs[i].id < regs[j].id
	})
	corrNear, corrFar := []float64{}, []float64{}
	frontEnds := geo.NewIndex(big.SiteLocs)
	for i, rr := range regs {
		a := byRegion[rr.id]
		rel := (a.lat / a.users) / maxLat
		_, minD := frontEnds.Nearest(geo.Prepare(w.Regions()[rr.id].Center))
		if minD < 500 {
			corrNear = append(corrNear, rel)
		} else {
			corrFar = append(corrFar, rel)
		}
		if i < 25 {
			t.AddRow(w.Regions()[rr.id].Name, fmt.Sprintf("%.0f", rr.users/1e6),
				fmt.Sprintf("%.2f", rel), fmt.Sprintf("%.0f", minD))
		}
	}
	return Result{
		Measured: fmt.Sprintf("mean relative latency %.2f near front-ends (<500 km) vs %.2f far",
			stats.Mean(corrNear), stats.Mean(corrFar)),
		Output: t.Render(),
	}, nil
}

func runAppC(ctx context.Context, w *World, seed int64) (Result, error) {
	res := webmodel.RunSweep(rng.NewRand(seed, rng.PhaseWebModel, 0))
	vals := make([]float64, len(res.RTTsPerLoad))
	for i, r := range res.RTTsPerLoad {
		vals[i] = float64(r)
	}
	cdf, err := stats.NewCDFFromValues(vals)
	if err != nil {
		return Result{}, err
	}
	var sb strings.Builder
	sb.WriteString(report.RenderCDFs("Appendix C: CDF of page loads vs RTT count",
		"RTTs", []float64{5, 10, 12, 14, 16, 18, 20, 25, 30}, []report.Series{{Name: "loads", CDF: cdf}}))
	sb.WriteString(fmt.Sprintf("\nchosen lower bound: %d RTTs per page load\n", res.LowerBound))
	return Result{
		Measured: fmt.Sprintf("%.0f%% of loads within 10 RTTs, %.0f%% within 20 (median %.0f)",
			100*res.FracWithin10, 100*res.FracWithin20, cdf.Median()),
		Output: sb.String(),
	}, nil
}
