package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"anycastctx/internal/anycastnet"
	"anycastctx/internal/bgp"
	"anycastctx/internal/cdn"
	"anycastctx/internal/ditl"
	"anycastctx/internal/dnssim"
	"anycastctx/internal/geo"
	"anycastctx/internal/latency"
	"anycastctx/internal/stats"
	"anycastctx/internal/topology"
	"anycastctx/internal/users"
)

// world bundles everything the analysis needs, built once per test run.
type world struct {
	g      *topology.Graph
	pop    *users.Population
	camp   *ditl.Campaign
	join   *ditl.Join
	cdnNet *cdn.CDN
	cdnC   *users.CDNCounts
	apnic  *users.APNICCounts
	locs   []cdn.Location
}

var cachedWorld *world

func buildWorld(t *testing.T) *world {
	t.Helper()
	if cachedWorld != nil {
		return cachedWorld
	}
	regions := geo.GenerateRegions(geo.PaperRegionCounts, rand.New(rand.NewSource(42)))
	g, err := topology.New(topology.Config{Seed: 8, NumTier1: 8, NumTransit: 60, NumEyeball: 800}, regions)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	public := users.AddPublicDNS(g)
	specs := anycastnet.Letters2018()
	letterSites := make([][]bgp.Site, len(specs))
	for i, spec := range specs {
		if letterSites[i], err = anycastnet.AddLetterSites(g, spec, rng); err != nil {
			t.Fatal(err)
		}
	}
	cdnAS, err := cdn.AddNetwork(g, cdn.Config{}, 9)
	if err != nil {
		t.Fatal(err)
	}

	pop, err := users.Build(g, public, 1e9, 9)
	if err != nil {
		t.Fatal(err)
	}
	zone := dnssim.NewZone(1000, 9)
	rates := dnssim.ComputeRates(pop, zone, 9)
	letters := make([]*anycastnet.Deployment, len(specs))
	for i, spec := range specs {
		if letters[i], err = anycastnet.NewDeployment(g, spec.Letter, letterSites[i]); err != nil {
			t.Fatal(err)
		}
	}
	model := latency.DefaultModel()
	camp, err := ditl.Build(context.Background(), g, letters, pop, zone, rates, model, ditl.Config{}, 9)
	if err != nil {
		t.Fatal(err)
	}
	cdnC := users.BuildCDNCounts(pop, 9)
	apnic := users.BuildAPNICCounts(g, pop, 9)
	cdnNet, err := cdn.Build(context.Background(), g, cdnAS, model)
	if err != nil {
		t.Fatal(err)
	}
	cachedWorld = &world{
		g:      g,
		pop:    pop,
		camp:   camp,
		join:   camp.JoinCDNCtx(context.Background(), cdnC, false),
		cdnNet: cdnNet,
		cdnC:   cdnC,
		apnic:  apnic,
		locs:   cdn.Locations(g, 1e9),
	}
	return cachedWorld
}

func mustCDF(t *testing.T, obs []stats.WeightedValue) *stats.CDF {
	t.Helper()
	c, err := stats.NewCDF(obs)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFig2aShape(t *testing.T) {
	// Larger deployments are more likely to inflate; All Roots has the
	// lowest zero-inflation intercept; nearly all users see some inflation
	// to at least one root.
	w := buildWorld(t)
	effByLetter := map[string]float64{}
	for li, name := range w.camp.LetterNames {
		obs := GeoInflationLetter(w.camp, li, w.join)
		if len(obs) == 0 {
			t.Fatalf("no observations for %s", name)
		}
		effByLetter[name] = Efficiency(obs, 1)
	}
	all := GeoInflationAllRoots(w.camp, w.join)
	allEff := Efficiency(all, 1)
	// All-roots intercept below every individual letter's.
	for name, eff := range effByLetter {
		if allEff > eff+1e-9 {
			t.Errorf("All-Roots efficiency %.3f above letter %s's %.3f", allEff, name, eff)
		}
	}
	// >90% of users inflated on average across roots.
	if allEff > 0.15 {
		t.Errorf("All-Roots zero-inflation share %.3f; paper finds >95%% inflated", allEff)
	}
	// B (2 sites) should be among the most efficient; L (138) among the least.
	if effByLetter["B"] < effByLetter["L"] {
		t.Errorf("B efficiency %.3f < L efficiency %.3f", effByLetter["B"], effByLetter["L"])
	}
	// A meaningful share of users sees >20 ms of average inflation
	// (paper: 10.8%).
	cdf := mustCDF(t, all)
	frac := cdf.FractionAbove(20)
	if frac < 0.02 || frac > 0.5 {
		t.Errorf("share above 20 ms = %.3f, want ~0.1", frac)
	}
}

func TestFig2bShape(t *testing.T) {
	// Latency inflation: individual letters inflate 20-40% of users by
	// >100 ms; All-Roots much less (~10%).
	w := buildWorld(t)
	usable := anycastnet.TCPLatencyLetters2018
	var worstLetter float64
	for li, name := range w.camp.LetterNames {
		if !usable[name] || name == "B" {
			continue
		}
		obs := LatencyInflationLetter(w.camp, li, w.join)
		if len(obs) == 0 {
			t.Fatalf("no latency observations for %s", name)
		}
		cdf := mustCDF(t, obs)
		if f := cdf.FractionAbove(100); f > worstLetter {
			worstLetter = f
		}
	}
	all := mustCDF(t, LatencyInflationAllRoots(w.camp, w.join, usable))
	allAbove := all.FractionAbove(100)
	if worstLetter < 0.05 {
		t.Errorf("worst letter >100ms share %.3f too low", worstLetter)
	}
	if allAbove >= worstLetter {
		t.Errorf("All-Roots >100ms share %.3f not below worst letter %.3f", allAbove, worstLetter)
	}
}

func TestFig3Shape(t *testing.T) {
	// Median ~1 query/user/day for both user datasets; Ideal is orders of
	// magnitude lower.
	w := buildWorld(t)
	cdnLine := mustCDF(t, QueriesPerUserCDN(w.camp, w.join, ValidOnly))
	apnicLine := mustCDF(t, QueriesPerUserAPNIC(w.camp, w.apnic, ValidOnly))
	ideal := mustCDF(t, QueriesPerUserCDN(w.camp, w.join, IdealOncePerTTL))

	if m := cdnLine.Median(); m < 0.1 || m > 10 {
		t.Errorf("CDN median = %.3f, want ~1", m)
	}
	if m := apnicLine.Median(); m < 0.05 || m > 10 {
		t.Errorf("APNIC median = %.3f, want ~1", m)
	}
	if ideal.Median() >= cdnLine.Median()/10 {
		t.Errorf("Ideal median %.4f not well below CDN median %.3f", ideal.Median(), cdnLine.Median())
	}
	// Tail exists (spammers / miscounted recursives).
	if cdnLine.Quantile(0.999) < 10 {
		t.Errorf("no heavy tail: p99.9 = %.1f", cdnLine.Quantile(0.999))
	}
}

func TestFig8InvalidTLDsInflateCounts(t *testing.T) {
	// Counting invalid queries raises the median by roughly an order of
	// magnitude (paper: 20x CDN, 6x APNIC).
	w := buildWorld(t)
	valid := mustCDF(t, QueriesPerUserCDN(w.camp, w.join, ValidOnly))
	invalid := mustCDF(t, QueriesPerUserCDN(w.camp, w.join, IncludingInvalid))
	ratio := invalid.Median() / valid.Median()
	if ratio < 3 || ratio > 100 {
		t.Errorf("invalid/valid median ratio = %.1f, want ~5-20x", ratio)
	}
	av := mustCDF(t, QueriesPerUserAPNIC(w.camp, w.apnic, ValidOnly))
	ai := mustCDF(t, QueriesPerUserAPNIC(w.camp, w.apnic, IncludingInvalid))
	if r := ai.Median() / av.Median(); r < 2 || r > 100 {
		t.Errorf("APNIC invalid/valid ratio = %.1f", r)
	}
}

func TestFig9ByIPJoinShrinksEstimates(t *testing.T) {
	// Without the /24 join, the median queries/user/day falls far below
	// the joined estimate (paper: ~30x lower).
	w := buildWorld(t)
	joined := mustCDF(t, QueriesPerUserCDN(w.camp, w.join, ValidOnly))
	byIP := w.camp.JoinCDNCtx(context.Background(), w.cdnC, true)
	ipLine := mustCDF(t, QueriesPerUserCDN(w.camp, byIP, ValidOnly))
	if ipLine.Median() >= joined.Median() {
		t.Errorf("by-IP median %.3f not below /24 median %.3f", ipLine.Median(), joined.Median())
	}
}

func TestFig5CDNInflationSmall(t *testing.T) {
	// CDN: most users zero geographic inflation, 85% < 10 ms; latency
	// inflation < 30 ms for ~70%; far better than individual letters.
	w := buildWorld(t)
	logs := w.cdnNet.ServerSideLogsCtx(context.Background(), w.locs, 17)
	for _, ring := range w.cdnNet.Rings {
		gi := mustCDF(t, CDNGeoInflation(logs, ring))
		if p := gi.P(10); p < 0.6 {
			t.Errorf("ring %s: only %.2f of users under 10 ms geo inflation", ring.Name, p)
		}
		if eff := Efficiency(CDNGeoInflation(logs, ring), 1); eff < 0.35 {
			t.Errorf("ring %s efficiency %.2f too low", ring.Name, eff)
		}
		li := mustCDF(t, CDNLatencyInflation(logs, ring))
		if p := li.P(30); p < 0.5 {
			t.Errorf("ring %s: only %.2f of users under 30 ms latency inflation", ring.Name, p)
		}
		if p := li.P(100); p < 0.9 {
			t.Errorf("ring %s: only %.2f of users under 100 ms latency inflation", ring.Name, p)
		}
	}
	// Direct comparison: CDN (largest ring) beats the per-letter root
	// average on geographic inflation prevalence.
	r110 := w.cdnNet.Rings[len(w.cdnNet.Rings)-1]
	cdnEff := Efficiency(CDNGeoInflation(logs, r110), 1)
	allRootsEff := Efficiency(GeoInflationAllRoots(w.camp, w.join), 1)
	if cdnEff <= allRootsEff {
		t.Errorf("CDN zero-inflation share %.2f not above root DNS %.2f", cdnEff, allRootsEff)
	}
}

// TestCDNGeoInflationRoutesMatchesLogs: on a fault-free CDN every
// location with a route logs one row per ring, served by its catchment's
// front-end, so Eq. 1 from the catchments gives the logs' observations in
// the same order, value and weight bit for bit, for every ring.
// abl-peering reads it so.
func TestCDNGeoInflationRoutesMatchesLogs(t *testing.T) {
	w := buildWorld(t)
	logs := w.cdnNet.ServerSideLogsCtx(context.Background(), w.locs, 17)
	for _, ring := range w.cdnNet.Rings {
		want, got := CDNGeoInflation(logs, ring), CDNGeoInflationRoutes(ring, w.locs)
		if len(got) != len(want) {
			t.Fatalf("ring %s: %d observations from routes, %d from logs", ring.Name, len(got), len(want))
		}
		inflated := 0
		for i := range want {
			if math.Float64bits(got[i].Value) != math.Float64bits(want[i].Value) ||
				math.Float64bits(got[i].Weight) != math.Float64bits(want[i].Weight) {
				t.Fatalf("ring %s observation %d: %+v from routes, %+v from logs", ring.Name, i, got[i], want[i])
			}
			if want[i].Value > 0 {
				inflated++
			}
		}
		if inflated == 0 {
			t.Fatalf("ring %s: no observation is inflated; the test shows too little", ring.Name)
		}
	}
}

func TestFig7aEfficiencyVsSize(t *testing.T) {
	// Within the CDN rings: bigger ring, lower efficiency but lower
	// median latency.
	w := buildWorld(t)
	logs := w.cdnNet.ServerSideLogsCtx(context.Background(), w.locs, 19)
	var prevEff float64 = -1
	var prevMed float64 = -1
	var firstEff, lastEff, firstMed, lastMed float64
	for i, ring := range w.cdnNet.Rings {
		eff := Efficiency(CDNGeoInflation(logs, ring), 1)
		var obs []stats.WeightedValue
		for _, row := range logs {
			if row.Ring == ring.Name {
				obs = append(obs, stats.WeightedValue{Value: row.MedianRTTMs, Weight: row.Location.Users})
			}
		}
		med := mustCDF(t, obs).Median()
		if i == 0 {
			firstEff, firstMed = eff, med
		}
		lastEff, lastMed = eff, med
		prevEff, prevMed = eff, med
	}
	_ = prevEff
	_ = prevMed
	if lastEff > firstEff {
		t.Errorf("efficiency rose with ring size: R28=%.2f R110=%.2f", firstEff, lastEff)
	}
	if lastMed > firstMed {
		t.Errorf("median latency rose with ring size: R28=%.1f R110=%.1f", firstMed, lastMed)
	}
}

func TestFig7bCoverage(t *testing.T) {
	w := buildWorld(t)
	radii := []float64{250, 500, 1000, 2000}
	// All-roots coverage: union of every letter's global sites.
	var allSites []geo.Coord
	for _, l := range w.camp.Letters {
		allSites = append(allSites, GlobalSiteLocs(l.Sites)...)
	}
	curve := CoverageCurve(allSites, w.locs, radii)
	if len(curve) != len(radii) {
		t.Fatal("curve size wrong")
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].P < curve[i-1].P {
			t.Fatal("coverage not monotone")
		}
	}
	// Paper: 91% of users within 500 km of some root site.
	if curve[1].P < 0.5 {
		t.Errorf("all-roots coverage at 500 km = %.2f, want high", curve[1].P)
	}
	// A small letter covers fewer users than All Roots.
	bIdx := w.camp.LetterIndex("B")
	bCurve := CoverageCurve(GlobalSiteLocs(w.camp.Letters[bIdx].Sites), w.locs, radii)
	if bCurve[1].P >= curve[1].P {
		t.Errorf("B coverage %.2f >= all-roots %.2f", bCurve[1].P, curve[1].P)
	}
	// Degenerate inputs.
	if CoverageCurve(nil, w.locs, radii) != nil {
		t.Error("nil sites should yield nil")
	}
	if CoverageCurve(allSites, nil, radii) != nil {
		t.Error("nil locations should yield nil")
	}
}

func TestFig10FavoriteSite(t *testing.T) {
	w := buildWorld(t)
	for li, name := range w.camp.LetterNames {
		obs := FavoriteSiteFractions(w.camp, li)
		cdf := mustCDF(t, obs)
		// >80% of /24s send everything to one site.
		if p := cdf.P(0.0); p < 0.8 {
			t.Errorf("letter %s: only %.2f of /24s single-site", name, p)
		}
		// Values stay in [0, 0.5] (favorite keeps the majority).
		if cdf.Max() > 0.5+1e-9 {
			t.Errorf("letter %s: off-favorite fraction %.2f above half", name, cdf.Max())
		}
	}
}

func TestEfficiencyHelper(t *testing.T) {
	obs := []stats.WeightedValue{{Value: 0, Weight: 3}, {Value: 50, Weight: 1}}
	if got := Efficiency(obs, 0.5); got != 0.75 {
		t.Errorf("Efficiency = %v", got)
	}
	if Efficiency(nil, 1) != 0 {
		t.Error("empty efficiency should be 0")
	}
}

func TestQueriesPerUserSkipsZeroUsers(t *testing.T) {
	w := buildWorld(t)
	obs := QueriesPerUserCDN(w.camp, w.join, ValidOnly)
	for _, o := range obs {
		if o.Weight <= 0 || math.IsInf(o.Value, 0) || math.IsNaN(o.Value) {
			t.Fatalf("bad observation %+v", o)
		}
	}
}
