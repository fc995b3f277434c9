package anycastctx

// Ablations for the design choices the paper's analysis rests on: how
// deployment size, peering breadth, BGP's decision process, recursives'
// letter preference, and RFC 8806 local-root operation each move the
// headline numbers. Every ablation measures the world it is given: the
// sweeps deploy on clones of its graph and abl-tau rebases its campaign,
// so no experiment writes shared world state and experiment order never
// matters.

import (
	"context"
	"fmt"
	"math/rand"

	"anycastctx/internal/anycastnet"
	"anycastctx/internal/bgp"
	"anycastctx/internal/cdn"
	"anycastctx/internal/core"
	"anycastctx/internal/dnssim"
	"anycastctx/internal/report"
	"anycastctx/internal/rng"
	"anycastctx/internal/stage"
	"anycastctx/internal/stats"
	"anycastctx/internal/topology"
)

func init() {
	register(Experiment{
		ID:         "abl-size",
		Title:      "Ablation: deployment size sweep",
		PaperClaim: "bigger: lower latency, lower efficiency",
		Needs:      []stage.ID{stage.Topology},
		Run:        runAblSize,
	})
	register(Experiment{
		ID:         "abl-peering",
		Title:      "Ablation: CDN peering breadth sweep",
		PaperClaim: "wide peering drives direct paths and low inflation",
		Needs:      []stage.ID{stage.Topology, stage.Locations},
		Run:        runAblPeering,
	})
	register(Experiment{
		ID:         "abl-routing",
		Title:      "Ablation: BGP vs optimal vs unicast",
		PaperClaim: "anycast beats unicast even with BGP's inefficiency",
		Needs:      []stage.ID{stage.Topology},
		Run:        runAblRouting,
	})
	register(Experiment{
		ID:         "abl-tau",
		Title:      "Ablation: recursive letter preference",
		PaperClaim: "preferential querying suppresses per-query inflation",
		Needs:      []stage.ID{stage.Campaign, stage.Join},
		Run:        runAblTau,
	})
	register(Experiment{
		ID:         "abl-localroot",
		Title:      "Ablation: RFC 8806 local root",
		PaperClaim: "local root reaches the Ideal line: user-visible root queries vanish",
		Needs:      []stage.ID{stage.Zone},
		Run:        runAblLocalRoot,
	})
}

// ablGraph returns a clone of the world's graph for a sweep to deploy on,
// and the sweep's site-placement stream, keyed by the world seed and
// offset.
func ablGraph(w *World, offset uint64) (*topology.Graph, *rand.Rand) {
	return w.Graph().Clone(), rng.NewRand(w.Cfg.Seed, rng.PhaseAblation, offset)
}

// ablDeploy adds every spec's sites to g, in spec order, and only then
// deploys them, so no resolver reads g before it holds every AS.
func ablDeploy(g *topology.Graph, specs []anycastnet.LetterSpec, r *rand.Rand) ([]*anycastnet.Deployment, error) {
	sites := make([][]bgp.Site, len(specs))
	for i, spec := range specs {
		var err error
		if sites[i], err = anycastnet.AddLetterSites(g, spec, r); err != nil {
			return nil, err
		}
	}
	deps := make([]*anycastnet.Deployment, len(specs))
	for i, spec := range specs {
		var err error
		if deps[i], err = anycastnet.NewDeployment(g, spec.Letter, sites[i]); err != nil {
			return nil, err
		}
	}
	return deps, nil
}

func runAblSize(ctx context.Context, w *World, _ int64) (Result, error) {
	g, sites := ablGraph(w, 1)
	model := w.Model()
	t := report.Table{
		Title:   "Ablation: a single deployment grown from 2 to 100 sites",
		Headers: []string{"Sites", "Median RTT (ms)", "At closest site", "Median gap vs optimal (ms)"},
	}
	type point struct {
		n   int
		med float64
		eff float64
	}
	var first, last point
	var specs []anycastnet.LetterSpec
	for _, n := range []int{2, 5, 10, 20, 50, 100} {
		specs = append(specs, anycastnet.LetterSpec{
			Letter: fmt.Sprintf("size%d", n), GlobalSites: n, TotalSites: n, Openness: 0.25,
		})
	}
	deps, err := ablDeploy(g, specs, sites)
	if err != nil {
		return Result{}, err
	}
	for i, d := range deps {
		n := specs[i].GlobalSites
		rc, err := core.CompareRouting(g, d, model)
		if err != nil {
			return Result{}, err
		}
		t.AddRow(fmt.Sprintf("%d", n),
			fmt.Sprintf("%.1f", rc.ActualMedianMs),
			fmt.Sprintf("%.1f%%", 100*rc.AtOptimalShare),
			fmt.Sprintf("%.1f", rc.MedianGapMs))
		if first.n == 0 {
			first = point{n, rc.ActualMedianMs, rc.AtOptimalShare}
		}
		last = point{n, rc.ActualMedianMs, rc.AtOptimalShare}
	}
	return Result{
		Measured: fmt.Sprintf("%d→%d sites: median RTT %.0f→%.0f ms, at-closest %.0f%%→%.0f%%",
			first.n, last.n, first.med, last.med, 100*first.eff, 100*last.eff),
		Output: t.Render(),
	}, nil
}

func runAblPeering(ctx context.Context, w *World, _ int64) (Result, error) {
	model := w.Model()
	t := report.Table{
		Title:   "Ablation: CDN peering breadth vs direct-path share and inflation",
		Headers: []string{"Peer base", "2-AS paths", "Zero geo inflation", "Median RTT (ms)"},
	}
	type point struct {
		direct, eff float64
	}
	var lo, hi point
	for i, base := range []float64{0.05, 0.25, 0.45, 0.70} {
		// One seed for every row: the rows share PoPs and per-eyeball
		// peering rolls, and differ only in PeerBase.
		g := w.Graph().Clone()
		as, err := cdn.AddNetwork(g, cdn.Config{PeerBase: base}, w.Cfg.Seed)
		if err != nil {
			return Result{}, err
		}
		c, err := cdn.Build(ctx, g, as, model)
		if err != nil {
			return Result{}, err
		}
		big := c.Rings[len(c.Rings)-1]
		// Resolve all routes across cores up front; the loop below then
		// reads the cache in deterministic eyeball order.
		big.Deployment.WarmRoutesCtx(ctx, g.Eyeballs())
		var direct, total float64
		var rtts []stats.WeightedValue
		for _, e := range g.Eyeballs() {
			rt, ok := big.Deployment.Route(e)
			if !ok {
				continue
			}
			wgt := g.AS(e).UserWeight
			total += wgt
			if rt.PathLen == 2 {
				direct += wgt
			}
			rtts = append(rtts, stats.WeightedValue{Value: model.BaseRTTMs(e, rt), Weight: wgt})
		}
		cdf, err := stats.NewCDF(rtts)
		if err != nil {
			return Result{}, err
		}
		// Eq. 1 reads only each location's front-end, so the fault-free
		// CDN's catchments give the server-side logs' observations
		// without sampling a median RTT for any ring.
		eff := core.Efficiency(core.CDNGeoInflationRoutes(big, w.Locations()), 1)
		t.AddRow(fmt.Sprintf("%.2f", base),
			fmt.Sprintf("%.1f%%", 100*direct/total),
			fmt.Sprintf("%.1f%%", 100*eff),
			fmt.Sprintf("%.1f", cdf.Median()))
		if i == 0 {
			lo = point{direct / total, eff}
		}
		hi = point{direct / total, eff}
	}
	return Result{
		Measured: fmt.Sprintf("direct paths %.0f%%→%.0f%%, zero-inflation %.0f%%→%.0f%% as peering grows",
			100*lo.direct, 100*hi.direct, 100*lo.eff, 100*hi.eff),
		Output: t.Render(),
	}, nil
}

func runAblRouting(ctx context.Context, w *World, _ int64) (Result, error) {
	g, sites := ablGraph(w, 20)
	model := w.Model()
	t := report.Table{
		Title:   "Ablation: routing baselines per deployment (user-weighted medians)",
		Headers: []string{"Deployment", "BGP (ms)", "Optimal anycast (ms)", "Best unicast site (ms)"},
	}
	var headline string
	specs := []anycastnet.LetterSpec{
		{Letter: "small", GlobalSites: 5, TotalSites: 5, Openness: 0.25},
		{Letter: "large", GlobalSites: 80, TotalSites: 80, Openness: 0.25},
	}
	deps, err := ablDeploy(g, specs, sites)
	if err != nil {
		return Result{}, err
	}
	for i, d := range deps {
		spec := specs[i]
		rc, err := core.CompareRouting(g, d, model)
		if err != nil {
			return Result{}, err
		}
		_, uni := core.UnicastBaseline(g, d, model)
		t.AddRow(fmt.Sprintf("%s (%d sites)", spec.Letter, spec.GlobalSites),
			fmt.Sprintf("%.1f", rc.ActualMedianMs),
			fmt.Sprintf("%.1f", rc.OptimalMedianMs),
			fmt.Sprintf("%.1f", uni))
		if spec.Letter == "large" {
			headline = fmt.Sprintf("80 sites: BGP %.0f ms vs optimal %.0f ms vs best unicast %.0f ms",
				rc.ActualMedianMs, rc.OptimalMedianMs, uni)
		}
	}
	return Result{
		Measured: headline,
		Output:   t.Render(),
	}, nil
}

func runAblTau(ctx context.Context, w *World, _ int64) (Result, error) {
	// The temperature only weighs letters, so a row off the world's
	// temperature rebases the world's campaign on its own deployments: the
	// rebase shares the route table, site shares, egress store and junk
	// sources, and draws only the softmax and the TCP medians of cells
	// that newly pass the volume gate. The /24 join reads no weight, so
	// every row reads the world's.
	t := report.Table{
		Title:   "Ablation: letter-preference temperature vs per-query inflation",
		Headers: []string{"Tau (ms)", "All-Roots median inflation (ms)", ">20ms share"},
	}
	base, j := w.Campaign(), w.JoinCtx(ctx)
	var sharp, flat float64
	for i, tau := range []float64{5, 25, 120, 100000} {
		camp := base
		if tau != base.Cfg.TauMs {
			var err error
			if camp, err = base.Rebase(ctx, base.Letters, nil, tau, false, w.Cfg.Seed); err != nil {
				return Result{}, err
			}
		}
		cdf, err := stats.NewCDF(core.GeoInflationAllRoots(camp, j))
		if err != nil {
			return Result{}, err
		}
		label := fmt.Sprintf("%.0f", tau)
		if tau >= 100000 {
			label = "uniform (no preference)"
		}
		t.AddRow(label, fmt.Sprintf("%.1f", cdf.Median()),
			fmt.Sprintf("%.1f%%", 100*cdf.FractionAbove(20)))
		if i == 0 {
			sharp = cdf.Median()
		}
		flat = cdf.Median()
	}
	return Result{
		Measured: fmt.Sprintf("All-Roots median inflation %.1f ms with sharp preference vs %.1f ms with none",
			sharp, flat),
		Output: t.Render(),
	}, nil
}

func runAblLocalRoot(ctx context.Context, w *World, seed int64) (Result, error) {
	zone := w.Zone()
	run := func(localRoot bool, seed int64) (dnssim.Counters, error) {
		r, err := dnssim.NewResolver(zone,
			dnssim.ResolverConfig{NumLetters: 13, Bug: true, LocalRoot: localRoot},
			dnssim.StandardUpstreams([]float64{30, 45, 60, 25, 35, 50, 40, 55, 70, 90, 20, 65, 80},
				rand.New(rand.NewSource(seed))),
			rand.New(rand.NewSource(seed)))
		if err != nil {
			return dnssim.Counters{}, err
		}
		client := dnssim.NewClient(zone, dnssim.ClientConfig{Users: 150}, seed+1)
		client.RunCtx(ctx, r, 2, nil)
		return r.Counters(), nil
	}
	normal, err := run(false, w.Cfg.Seed*17)
	if err != nil {
		return Result{}, err
	}
	local, err := run(true, w.Cfg.Seed*17)
	if err != nil {
		return Result{}, err
	}
	t := report.Table{
		Title:   "Ablation: RFC 8806 local root vs normal resolution (2 simulated days, 150 users)",
		Headers: []string{"Metric", "Normal", "Local root"},
	}
	t.AddRow("root queries", fmt.Sprintf("%d", normal.RootQueries()), fmt.Sprintf("%d", local.RootQueries()))
	t.AddRow("root miss rate", fmt.Sprintf("%.3f%%", 100*normal.RootMissRate()),
		fmt.Sprintf("%.3f%%", 100*local.RootMissRate()))
	t.AddRow("zone refreshes", fmt.Sprintf("%d", normal.ZoneRefreshes), fmt.Sprintf("%d", local.ZoneRefreshes))
	t.AddRow("redundant root queries", fmt.Sprintf("%d", normal.RootQueriesRedundant),
		fmt.Sprintf("%d", local.RootQueriesRedundant))
	return Result{
		Measured: fmt.Sprintf("root queries %d → %d; zone refreshes %d",
			normal.RootQueries(), local.RootQueries(), local.ZoneRefreshes),
		Output: t.Render(),
	}, nil
}
