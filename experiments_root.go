package anycastctx

import (
	"context"
	"fmt"
	"strings"

	"anycastctx/internal/anycastnet"
	"anycastctx/internal/core"
	"anycastctx/internal/dnssim"
	"anycastctx/internal/report"
	"anycastctx/internal/rng"
	"anycastctx/internal/stage"
	"anycastctx/internal/stats"
	"anycastctx/internal/webmodel"
)

func init() {
	register(Experiment{
		ID:         "fig2a",
		Title:      "Fig 2a: geographic inflation per root query (ms)",
		PaperClaim: "y-intercepts fall with deployment size; All-Roots lowest; 10.8% of users >20 ms",
		Needs:      []stage.ID{stage.Campaign, stage.Join},
		Run:        runFig2a,
	})
	register(Experiment{
		ID:         "fig2b",
		Title:      "Fig 2b: latency inflation per root query (ms, TCP RTTs)",
		PaperClaim: "20-40% of users >100 ms to individual letters; All-Roots ~10%",
		Needs:      []stage.ID{stage.Campaign, stage.Join},
		Run:        runFig2b,
	})
	register(Experiment{
		ID:         "fig3",
		Title:      "Fig 3: root queries per user per day",
		PaperClaim: "median ~1/day on both user datasets; Ideal ~0.007",
		Needs:      []stage.ID{stage.Campaign, stage.UserCounts, stage.Join},
		Run:        runFig3,
	})
	register(Experiment{
		ID:         "fig8",
		Title:      "Fig 8: daily queries per user including invalid TLDs",
		PaperClaim: "median rises ~20x (CDN) / ~6x (APNIC) when junk is counted",
		Needs:      []stage.ID{stage.Campaign, stage.UserCounts, stage.Join},
		Run:        runFig8,
	})
	register(Experiment{
		ID:         "fig9",
		Title:      "Fig 9: daily queries per user without the /24 join",
		PaperClaim: "exact-IP median ~30x below the /24-joined estimate",
		Needs:      []stage.ID{stage.Campaign, stage.UserCounts, stage.Join},
		Run:        runFig9,
	})
	register(Experiment{
		ID:         "fig10",
		Title:      "Fig 10: fraction of /24 queries not reaching the favorite site",
		PaperClaim: ">80% of /24s single-site for every letter",
		Needs:      []stage.ID{stage.Campaign},
		Run:        runFig10,
	})
	register(Experiment{
		ID:         "fig11",
		Title:      "Fig 11: 2020 DITL re-run",
		PaperClaim: "2020 conclusions match 2018: ~1 query/user/day; ~10% of users >20 ms geographic inflation",
		Run:        runFig11,
	})
	register(Experiment{
		ID:         "fig12",
		Title:      "Fig 12: resolver query latency CDF",
		PaperClaim: "three regimes; >50% of queries answered sub-millisecond from cache",
		Needs:      []stage.ID{stage.Atlas, stage.Letters, stage.Zone},
		Run:        runFig12,
	})
	register(Experiment{
		ID:         "fig13",
		Title:      "Fig 13: root DNS latency per user query",
		PaperClaim: "<1% of queries generate a root request; <0.1% wait >100 ms",
		Needs:      []stage.ID{stage.Atlas, stage.Letters, stage.Zone},
		Run:        runFig13,
	})
	register(Experiment{
		ID:         "tab1",
		Title:      "Table 1: root operator survey",
		PaperClaim: "latency (8) and DDoS resilience (9) drove growth",
		Run:        runTab1,
	})
	register(Experiment{
		ID:         "tab23",
		Title:      "Tables 2-3: dataset inventory",
		PaperClaim: "complementary datasets with different tradeoffs",
		Needs:      []stage.ID{stage.Campaign, stage.UserCounts, stage.Atlas, stage.CDN, stage.Locations, stage.Join},
		Run:        runTab23,
	})
	register(Experiment{
		ID:         "tab4",
		Title:      "Table 4: DITL∩CDN overlap",
		PaperClaim: "joining by /24 lifts DITL volume coverage 8.4%→72.2%",
		Needs:      []stage.ID{stage.Campaign, stage.UserCounts},
		Run:        runTab4,
	})
	register(Experiment{
		ID:         "tab5",
		Title:      "Table 5: redundant root query trace",
		PaperClaim: "timeout triggers redundant AAAA root queries for out-of-glue NS names",
		Needs:      []stage.ID{stage.Letters, stage.Zone},
		Run:        runTab5,
	})
	register(Experiment{
		ID:         "local",
		Title:      "§4.3 local perspective",
		PaperClaim: "miss rates 0.5% shared / 1.5% personal; root latency 1.6% of page-load, 0.05% of browsing",
		Needs:      []stage.ID{stage.Atlas, stage.Letters, stage.Zone},
		Run:        runLocal,
	})
}

func runFig2a(ctx context.Context, w *World, seed int64) (Result, error) {
	j := w.JoinCtx(ctx)
	var series []report.Series
	var allRootsAbove20 float64
	for li, name := range w.Campaign().LetterNames {
		obs := core.GeoInflationLetter(w.Campaign(), li, j)
		cdf, err := stats.NewCDF(obs)
		if err != nil {
			return Result{}, fmt.Errorf("letter %s: %w", name, err)
		}
		series = append(series, report.Series{
			Name: fmt.Sprintf("%s-%d", name, w.Campaign().Letters[li].NumGlobalSites()),
			CDF:  cdf,
		})
	}
	allObs := core.GeoInflationAllRoots(w.Campaign(), j)
	all, err := stats.NewCDF(allObs)
	if err != nil {
		return Result{}, err
	}
	series = append(series, report.Series{Name: "AllRoots", CDF: all})
	allRootsAbove20 = all.FractionAbove(20)
	return Result{
		Measured: fmt.Sprintf("All-Roots zero-inflation share %.1f%%; %.1f%% of users >20 ms",
			100*core.Efficiency(allObs, 1), 100*allRootsAbove20),
		Output: report.RenderCDFs("Fig 2a: CDF of users vs geographic inflation (ms)",
			"ms", msGrid(140, 10), series),
	}, nil
}

func runFig2b(ctx context.Context, w *World, seed int64) (Result, error) {
	j := w.JoinCtx(ctx)
	usable := anycastnet.TCPLatencyLetters2018
	var series []report.Series
	for li, name := range w.Campaign().LetterNames {
		if !usable[name] {
			continue
		}
		obs := core.LatencyInflationLetter(w.Campaign(), li, j)
		cdf, err := stats.NewCDF(obs)
		if err != nil {
			return Result{}, fmt.Errorf("letter %s: %w", name, err)
		}
		series = append(series, report.Series{
			Name: fmt.Sprintf("%s-%d", name, w.Campaign().Letters[li].NumGlobalSites()),
			CDF:  cdf,
		})
	}
	all, err := stats.NewCDF(core.LatencyInflationAllRoots(w.Campaign(), j, usable))
	if err != nil {
		return Result{}, err
	}
	series = append(series, report.Series{Name: "AllRoots", CDF: all})

	var worst float64
	for _, s := range series[:len(series)-1] {
		if f := s.CDF.FractionAbove(100); f > worst {
			worst = f
		}
	}
	return Result{
		Measured: fmt.Sprintf("worst letter: %.1f%% of users >100 ms; All-Roots: %.1f%%",
			100*worst, 100*all.FractionAbove(100)),
		Output: report.RenderCDFs("Fig 2b: CDF of users vs latency inflation (ms)",
			"ms", msGrid(200, 25), series),
	}, nil
}

func runFig3(ctx context.Context, w *World, seed int64) (Result, error) {
	j := w.JoinCtx(ctx)
	cdnLine, err := stats.NewCDF(core.QueriesPerUserCDN(w.Campaign(), j, core.ValidOnly))
	if err != nil {
		return Result{}, err
	}
	apnicLine, err := stats.NewCDF(core.QueriesPerUserAPNIC(w.Campaign(), w.APNIC(), core.ValidOnly))
	if err != nil {
		return Result{}, err
	}
	ideal, err := stats.NewCDF(core.QueriesPerUserCDN(w.Campaign(), j, core.IdealOncePerTTL))
	if err != nil {
		return Result{}, err
	}
	series := []report.Series{
		{Name: "Ideal", CDF: ideal},
		{Name: "CDN", CDF: cdnLine},
		{Name: "APNIC", CDF: apnicLine},
	}
	return Result{
		Measured: fmt.Sprintf("medians: CDN %.2f, APNIC %.2f, Ideal %.4f queries/user/day",
			cdnLine.Median(), apnicLine.Median(), ideal.Median()),
		Output: report.RenderCDFs("Fig 3: CDF of users vs daily root queries",
			"q/user/day", logGrid(), series),
	}, nil
}

func runFig8(ctx context.Context, w *World, seed int64) (Result, error) {
	j := w.JoinCtx(ctx)
	validCDN, err := stats.NewCDF(core.QueriesPerUserCDN(w.Campaign(), j, core.ValidOnly))
	if err != nil {
		return Result{}, err
	}
	invCDN, err := stats.NewCDF(core.QueriesPerUserCDN(w.Campaign(), j, core.IncludingInvalid))
	if err != nil {
		return Result{}, err
	}
	validAP, err := stats.NewCDF(core.QueriesPerUserAPNIC(w.Campaign(), w.APNIC(), core.ValidOnly))
	if err != nil {
		return Result{}, err
	}
	invAP, err := stats.NewCDF(core.QueriesPerUserAPNIC(w.Campaign(), w.APNIC(), core.IncludingInvalid))
	if err != nil {
		return Result{}, err
	}
	series := []report.Series{
		{Name: "CDN+invalid", CDF: invCDN},
		{Name: "APNIC+invalid", CDF: invAP},
	}
	return Result{
		Measured: fmt.Sprintf("CDN median %.2f→%.2f (%.0fx); APNIC %.2f→%.2f (%.0fx)",
			validCDN.Median(), invCDN.Median(), invCDN.Median()/validCDN.Median(),
			validAP.Median(), invAP.Median(), invAP.Median()/validAP.Median()),
		Output: report.RenderCDFs("Fig 8: CDF of users vs daily root queries (junk included)",
			"q/user/day", logGrid(), series),
	}, nil
}

func runFig9(ctx context.Context, w *World, seed int64) (Result, error) {
	joined, err := stats.NewCDF(core.QueriesPerUserCDN(w.Campaign(), w.JoinCtx(ctx), core.ValidOnly))
	if err != nil {
		return Result{}, err
	}
	byIPJoin := w.Campaign().JoinCDNCtx(ctx, w.CDNCounts(), true)
	byIP, err := stats.NewCDF(core.QueriesPerUserCDN(w.Campaign(), byIPJoin, core.ValidOnly))
	if err != nil {
		return Result{}, err
	}
	series := []report.Series{
		{Name: "CDN(exact-IP)", CDF: byIP},
		{Name: "CDN(/24-join)", CDF: joined},
	}
	return Result{
		Measured: fmt.Sprintf("medians: exact-IP %.3f vs /24-join %.3f (%.0fx lower)",
			byIP.Median(), joined.Median(), joined.Median()/byIP.Median()),
		Output: report.RenderCDFs("Fig 9: CDF of users vs daily root queries (exact-IP join)",
			"q/user/day", logGrid(), series),
	}, nil
}

func runFig10(ctx context.Context, w *World, seed int64) (Result, error) {
	var series []report.Series
	var worstSingle float64 = 1
	for li, name := range w.Campaign().LetterNames {
		cdf, err := stats.NewCDF(core.FavoriteSiteFractions(w.Campaign(), li))
		if err != nil {
			return Result{}, fmt.Errorf("letter %s: %w", name, err)
		}
		series = append(series, report.Series{
			Name: fmt.Sprintf("%s(%dG/%dT)", name,
				w.Campaign().Letters[li].NumGlobalSites(), w.Campaign().Letters[li].NumSites()),
			CDF: cdf,
		})
		if p := cdf.P(0); p < worstSingle {
			worstSingle = p
		}
	}
	return Result{
		Measured: fmt.Sprintf("worst letter: %.1f%% of /24s fully single-site", 100*worstSingle),
		Output: report.RenderCDFs("Fig 10: CDF of /24s vs off-favorite query fraction",
			"frac", []float64{0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8}, series),
	}, nil
}

func runFig11(ctx context.Context, w *World, seed int64) (Result, error) {
	w20, err := build2020(ctx, w)
	if err != nil {
		return Result{}, err
	}
	j := w20.JoinCtx(ctx)
	cdnLine, err := stats.NewCDF(core.QueriesPerUserCDN(w20.Campaign(), j, core.ValidOnly))
	if err != nil {
		return Result{}, err
	}
	all, err := stats.NewCDF(core.GeoInflationAllRoots(w20.Campaign(), j))
	if err != nil {
		return Result{}, err
	}
	var series []report.Series
	for li, name := range w20.Campaign().LetterNames {
		cdf, err := stats.NewCDF(core.GeoInflationLetter(w20.Campaign(), li, j))
		if err != nil {
			return Result{}, err
		}
		series = append(series, report.Series{
			Name: fmt.Sprintf("%s-%d", name, w20.Campaign().Letters[li].NumGlobalSites()),
			CDF:  cdf,
		})
	}
	series = append(series, report.Series{Name: "AllRoots", CDF: all})
	return Result{
		Measured: fmt.Sprintf("2020: CDN median %.2f q/user/day; %.1f%% of users >20 ms inflation",
			cdnLine.Median(), 100*all.FractionAbove(20)),
		Output: report.RenderCDFs("Fig 11b: 2020 geographic inflation per root query (ms)",
			"ms", msGrid(140, 10), series),
	}, nil
}

// runLocalResolver drives an ISI-style recursive and returns it with its
// client and collected per-query results.
func runLocalResolver(ctx context.Context, w *World, seed int64, nUsers int, days float64,
	onResult func(dnssim.QueryKind, dnssim.QueryResult)) (*dnssim.Resolver, dnssim.RunStats, error) {
	// Base RTTs to the letters as seen by a well-connected site: use the
	// median Atlas ping per letter.
	baseRTTs := make([]float64, len(w.Letters()))
	for li, letter := range w.Letters() {
		pings := w.Atlas().Ping(letter, 3, seed)
		vals := make([]float64, len(pings))
		for i, p := range pings {
			vals[i] = p.RTTMs
		}
		baseRTTs[li] = stats.Median(vals)
		if baseRTTs[li] == 0 {
			baseRTTs[li] = 50
		}
	}
	upsRand := rng.NewRand(seed, rng.PhaseResolver, 0)
	r, err := dnssim.NewResolver(w.Zone(),
		dnssim.ResolverConfig{NumLetters: len(w.Letters()), Bug: true},
		dnssim.StandardUpstreams(baseRTTs, upsRand), upsRand)
	if err != nil {
		return nil, dnssim.RunStats{}, err
	}
	client := dnssim.NewClient(w.Zone(), dnssim.ClientConfig{Users: nUsers}, seed)
	client.RunCtx(ctx, r, 1, nil) // warm the cache for a day
	st := client.RunCtx(ctx, r, days, onResult)
	return r, st, nil
}

func runFig12(ctx context.Context, w *World, seed int64) (Result, error) {
	var latencies []float64
	_, _, err := runLocalResolver(ctx, w, seed, 150, 2, func(_ dnssim.QueryKind, res dnssim.QueryResult) {
		latencies = append(latencies, res.LatencyMs)
	})
	if err != nil {
		return Result{}, err
	}
	cdf, err := stats.NewCDFFromValues(latencies)
	if err != nil {
		return Result{}, err
	}
	subMs := cdf.P(1)
	return Result{
		Measured: fmt.Sprintf("%.1f%% of queries sub-millisecond; median %.2f ms; p95 %.0f ms", 100*subMs, cdf.Median(), cdf.Quantile(0.95)),
		Output: report.RenderCDFs("Fig 12: CDF of queries vs latency (ms)",
			"ms", []float64{0.5, 1, 5, 10, 25, 50, 100, 250, 500, 1000, 2000}, []report.Series{{Name: "queries", CDF: cdf}}),
	}, nil
}

func runFig13(ctx context.Context, w *World, seed int64) (Result, error) {
	var rootLat []float64
	var withRoot, total int
	_, _, err := runLocalResolver(ctx, w, seed, 150, 2, func(_ dnssim.QueryKind, res dnssim.QueryResult) {
		rootLat = append(rootLat, res.RootLatencyMs)
		total++
		if res.RootQueriesOnPath > 0 {
			withRoot++
		}
	})
	if err != nil {
		return Result{}, err
	}
	cdf, err := stats.NewCDFFromValues(rootLat)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Measured: fmt.Sprintf("%.2f%% of queries touched a root; %.3f%% waited >100 ms on roots",
			100*float64(withRoot)/float64(total), 100*cdf.FractionAbove(100)),
		Output: report.RenderCDFs("Fig 13: CDF of queries vs root latency (ms)",
			"ms", []float64{0, 25, 50, 100, 150, 200, 300, 350}, []report.Series{{Name: "queries", CDF: cdf}}),
	}, nil
}

func runTab1(ctx context.Context, w *World, seed int64) (Result, error) {
	s := report.RootOperatorSurvey()
	return Result{
		Measured: fmt.Sprintf("%d respondents; latency cited by %d orgs", s.Respondents, s.Reasons[0].Orgs),
		Output:   s.Render(),
	}, nil
}

func runTab23(ctx context.Context, w *World, seed int64) (Result, error) {
	pre := w.Campaign().Preprocess()
	t := report.Table{
		Title:   "Tables 2-3: dataset inventory (simulated equivalents)",
		Headers: []string{"Dataset", "Scale", "Strength", "Weakness"},
	}
	t.AddRow("DITL packet traces",
		fmt.Sprintf("%.2fB raw q/day, %d recursive /24s", pre.RawPerDay/1e9, len(w.Pop().Recursives)),
		"global coverage", "noisy, above the recursive")
	t.AddRow("DITL∩CDN join",
		fmt.Sprintf("%.2fB retained q/day, %d joined /24s", pre.RetainedPerDay/1e9, len(w.JoinCtx(ctx).Rows)),
		"attributes queries to users", "excludes v6")
	t.AddRow("CDN server-side logs",
		fmt.Sprintf("%d locations x %d rings", len(w.Locations()), len(w.CDN().Rings)),
		"client-to-front-end mapping", "population varies across rings")
	t.AddRow("CDN client measurements",
		fmt.Sprintf("%d locations x %d rings", len(w.Locations()), len(w.CDN().Rings)),
		"fixed population across rings", "front-end unknown")
	t.AddRow("CDN user counts",
		fmt.Sprintf("%.0fM users on %d /24s", w.CDNCounts().TotalBy24()/1e6, len(w.CDNCounts().By24)),
		"precise per-resolver counts", "NAT undercounting")
	t.AddRow("APNIC user counts",
		fmt.Sprintf("%.0fM users on %d ASes", w.APNIC().WeightedUsers()/1e6, len(w.APNIC().ByASN)),
		"public, per-AS", "unvalidated, coarse")
	t.AddRow("Atlas probes",
		fmt.Sprintf("%d probes in %d ASes", len(w.Atlas().Probes), w.Atlas().ASCount()),
		"reproducible", "limited, biased coverage")
	return Result{
		Measured: fmt.Sprintf("raw %.2fB q/day funneled to %.2fB analyzable", pre.RawPerDay/1e9, pre.RetainedPerDay/1e9),
		Output:   t.Render(),
	}, nil
}

func runTab4(ctx context.Context, w *World, seed int64) (Result, error) {
	exact := w.Campaign().Overlap(w.CDNCounts(), true)
	joined := w.Campaign().Overlap(w.CDNCounts(), false)
	t := report.Table{
		Title:   "Table 4: DITL∩CDN overlap, exact-IP (joined by /24 in parens)",
		Headers: []string{"Statistic", "Exact-IP", "By /24"},
	}
	pct := func(v float64) string { return fmt.Sprintf("%.2f%%", 100*v) }
	t.AddRow("DITL Recursives matched", pct(exact.DITLRecursives), pct(joined.DITLRecursives))
	t.AddRow("DITL Query Volume matched", pct(exact.DITLVolume), pct(joined.DITLVolume))
	t.AddRow("CDN Recursives matched", pct(exact.CDNRecursives), pct(joined.CDNRecursives))
	t.AddRow("CDN User Volume matched", pct(exact.CDNVolume), pct(joined.CDNVolume))
	return Result{
		Measured: fmt.Sprintf("DITL volume coverage %.1f%%→%.1f%% with the /24 join",
			100*exact.DITLVolume, 100*joined.DITLVolume),
		Output: t.Render(),
	}, nil
}

func runTab5(ctx context.Context, w *World, seed int64) (Result, error) {
	baseRTTs := make([]float64, len(w.Letters()))
	for i := range baseRTTs {
		baseRTTs[i] = 30 + 10*float64(i)
	}
	upsRand := rng.NewRand(seed, rng.PhaseResolver, 0)
	r, err := dnssim.NewResolver(w.Zone(),
		dnssim.ResolverConfig{NumLetters: len(w.Letters()), Bug: true},
		dnssim.StandardUpstreams(baseRTTs, upsRand), upsRand)
	if err != nil {
		return Result{}, err
	}
	// Prime the TLD cache as in the paper's scenario (COM NS cached).
	r.ResolveA("warmup.com")
	r.StartTrace()
	res := r.ResolveAForceTimeout("bidder.criteo.com")
	steps := r.StopTrace()

	t := report.Table{
		Title:   "Table 5: redundant root DNS requests after an authoritative timeout",
		Headers: []string{"Step", "From", "To", "Query", "Type", "Note"},
	}
	for i, s := range steps {
		t.AddRow(fmt.Sprintf("%d", i+1), s.From, s.To, s.QName, s.QType, s.Note)
	}
	return Result{
		Measured: fmt.Sprintf("%d redundant root queries in a %d-step trace", res.RedundantRootQueries, len(steps)),
		Output:   t.Render(),
	}, nil
}

func runLocal(ctx context.Context, w *World, seed int64) (Result, error) {
	// Shared-cache (ISI-style) resolver.
	isiRes, _, err := runLocalResolver(ctx, w, seed, 200, 2, nil)
	if err != nil {
		return Result{}, err
	}
	isi := isiRes.Counters()

	// Personal resolver: one user, no shared cache, and its daily root
	// latency for the browsing-share computation.
	var rootMsPerDay float64
	personalRes, _, err := runLocalResolver(ctx, w, seed+1, 1, 7, func(_ dnssim.QueryKind, res dnssim.QueryResult) {
		rootMsPerDay += res.RootLatencyMs / 7
	})
	if err != nil {
		return Result{}, err
	}
	personal := personalRes.Counters()

	day := webmodel.TypicalBrowsingDay(rng.NewRand(seed, rng.PhaseWebModel, 1))
	ofLoad, ofBrowse := day.RootShare(rootMsPerDay)

	var sb strings.Builder
	t := report.Table{
		Title:   "§4.3 local perspective",
		Headers: []string{"Metric", "Shared cache (ISI-style)", "Personal resolver"},
	}
	t.AddRow("root cache miss rate",
		fmt.Sprintf("%.2f%%", 100*isi.RootMissRate()),
		fmt.Sprintf("%.2f%%", 100*personal.RootMissRate()))
	t.AddRow("redundant share of valid root queries",
		fmt.Sprintf("%.0f%%", 100*float64(isi.RootQueriesRedundant)/float64(max64(isi.RootQueriesValid, 1))),
		fmt.Sprintf("%.0f%%", 100*float64(personal.RootQueriesRedundant)/float64(max64(personal.RootQueriesValid, 1))))
	sb.WriteString(t.Render())
	sb.WriteString(fmt.Sprintf("\nroot DNS latency: %.2f%% of daily page-load time, %.3f%% of active browsing\n",
		100*ofLoad, 100*ofBrowse))
	return Result{
		Measured: fmt.Sprintf("miss rates %.2f%% shared / %.2f%% personal; root latency %.2f%% of page-load, %.3f%% of browsing",
			100*isi.RootMissRate(), 100*personal.RootMissRate(), 100*ofLoad, 100*ofBrowse),
		Output: sb.String(),
	}, nil
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
