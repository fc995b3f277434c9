package cdn

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"anycastctx/internal/geo"
	"anycastctx/internal/latency"
	"anycastctx/internal/stats"
	"anycastctx/internal/topology"
)

func buildWorld(t *testing.T) (*topology.Graph, *CDN) {
	t.Helper()
	regions := geo.GenerateRegions(geo.PaperRegionCounts, rand.New(rand.NewSource(42)))
	g, err := topology.New(topology.Config{Seed: 21, NumTier1: 6, NumTransit: 40, NumEyeball: 600}, regions)
	if err != nil {
		t.Fatal(err)
	}
	as, err := AddNetwork(g, Config{}, 7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Build(context.Background(), g, as, latency.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	return g, c
}

func TestBuildRings(t *testing.T) {
	_, c := buildWorld(t)
	if len(c.Rings) != 5 {
		t.Fatalf("rings = %d", len(c.Rings))
	}
	wantSizes := []int{28, 47, 74, 95, 110}
	for i, r := range c.Rings {
		if r.Size() != wantSizes[i] {
			t.Errorf("ring %s size = %d, want %d", r.Name, r.Size(), wantSizes[i])
		}
	}
	if len(c.PoPs) != 110 {
		t.Errorf("PoPs = %d", len(c.PoPs))
	}
	// Nesting: every smaller ring's site set is a prefix of the larger's.
	for i := 0; i+1 < len(c.Rings); i++ {
		small, big := c.Rings[i], c.Rings[i+1]
		for k, loc := range small.SiteLocs {
			if big.SiteLocs[k] != loc {
				t.Fatalf("ring %s site %d not nested in %s", small.Name, k, big.Name)
			}
		}
	}
	if c.Ring("R74") == nil || c.Ring("R999") != nil {
		t.Error("Ring lookup wrong")
	}
}

func TestMajorityDirectPaths(t *testing.T) {
	// Fig 6a: ~69% of paths to the CDN traverse just 2 ASes.
	g, c := buildWorld(t)
	ring := c.Rings[len(c.Rings)-1]
	var direct, total float64
	for _, e := range g.Eyeballs() {
		rt, ok := ring.Deployment.Route(e)
		if !ok {
			continue
		}
		w := g.AS(e).UserWeight
		total += w
		if rt.PathLen == 2 {
			direct += w
		}
	}
	frac := direct / total
	if frac < 0.5 || frac > 0.9 {
		t.Errorf("direct path share = %.2f, want ~0.69", frac)
	}
}

func TestIngressSamePoPAcrossRings(t *testing.T) {
	// §2.2: traffic usually ingresses at the same PoP regardless of ring.
	// For direct-peered users, the entry waypoint must match across rings.
	g, c := buildWorld(t)
	checked := 0
	for _, e := range g.Eyeballs() {
		var entries []geo.Coord
		allDirect := true
		for _, ring := range c.Rings {
			rt, ok := ring.Deployment.Route(e)
			if !ok || !rt.Direct {
				allDirect = false
				break
			}
			entries = append(entries, rt.Waypoints[1])
		}
		if !allDirect {
			continue
		}
		checked++
		for _, en := range entries[1:] {
			if en != entries[0] {
				t.Fatalf("AS%d enters at different PoPs across rings", e)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no fully direct users to check")
	}
}

func TestLargerRingsLowerLatency(t *testing.T) {
	// Fig 4a: median latency decreases (weakly) as rings grow.
	g, c := buildWorld(t)
	locs := Locations(g, 1e9)
	rows := c.ClientMeasurementsCtx(context.Background(), locs, 3)
	medians := map[string]float64{}
	for _, ring := range c.Rings {
		var obs []stats.WeightedValue
		for _, r := range rows {
			if r.Ring == ring.Name {
				obs = append(obs, stats.WeightedValue{Value: r.MedianRTTMs, Weight: r.Location.Users})
			}
		}
		cdf, err := stats.NewCDF(obs)
		if err != nil {
			t.Fatal(err)
		}
		medians[ring.Name] = cdf.Median()
	}
	if medians["R110"] > medians["R28"] {
		t.Errorf("R110 median %.1f > R28 median %.1f", medians["R110"], medians["R28"])
	}
	if medians["R28"] < 1 {
		t.Errorf("implausibly low R28 median %.2f", medians["R28"])
	}
}

func TestLargerRingsLessEfficient(t *testing.T) {
	// Fig 7a-right: the share of users at their closest front-end falls as
	// the ring grows.
	g, c := buildWorld(t)
	eff := func(r *Ring) float64 {
		var at, total float64
		for _, e := range g.Eyeballs() {
			rt, ok := r.Deployment.Route(e)
			if !ok {
				continue
			}
			as := g.AS(e)
			closest, closestD := -1, 0.0
			for i, loc := range r.SiteLocs {
				d := geo.DistanceKm(as.Loc, loc)
				if closest == -1 || d < closestD {
					closest, closestD = i, d
				}
			}
			total += as.UserWeight
			if geo.DistanceKm(as.Loc, r.SiteLocs[rt.SiteID]) <= closestD+1 {
				at += as.UserWeight
			}
		}
		return at / total
	}
	small := eff(c.Rings[0])
	big := eff(c.Rings[len(c.Rings)-1])
	if big > small {
		t.Errorf("efficiency grew with ring size: R28=%.2f R110=%.2f", small, big)
	}
}

func TestServerSideLogs(t *testing.T) {
	g, c := buildWorld(t)
	locs := Locations(g, 1e9)
	rows := c.ServerSideLogsCtx(context.Background(), locs, 5)
	if len(rows) == 0 {
		t.Fatal("no log rows")
	}
	perRing := map[string]int{}
	for _, r := range rows {
		perRing[r.Ring]++
		if r.MedianRTTMs <= 0 {
			t.Fatalf("bad RTT %v", r.MedianRTTMs)
		}
		ring := c.Ring(r.Ring)
		if r.FrontEnd < 0 || r.FrontEnd >= ring.Size() {
			t.Fatalf("front-end %d out of range for %s", r.FrontEnd, r.Ring)
		}
		if r.Samples < 20 {
			t.Fatalf("samples = %d", r.Samples)
		}
		if r.Direct != (r.PathLen == 2) {
			t.Fatal("Direct flag inconsistent")
		}
	}
	for _, ring := range c.Rings {
		if perRing[ring.Name] == 0 {
			t.Errorf("no rows for ring %s", ring.Name)
		}
	}
}

func TestRingDeltasMostlyNonNegative(t *testing.T) {
	// Fig 4b: moving to a larger ring almost never hurts much; 99% of
	// locations lose less than ~10 ms per RTT.
	g, c := buildWorld(t)
	locs := Locations(g, 1e9)
	rows := c.ClientMeasurementsCtx(context.Background(), locs, 9)
	ringNames := []string{"R28", "R47", "R74", "R95", "R110"}
	deltas := RingDeltas(rows, ringNames, 10)
	if len(deltas) == 0 {
		t.Fatal("no deltas")
	}
	var obs []stats.WeightedValue
	for _, d := range deltas {
		// Negative delta = regression when moving to the larger ring.
		obs = append(obs, stats.WeightedValue{Value: -d.DeltaMs, Weight: d.Location.Users})
		if d.PerPageMs != d.DeltaMs*10 {
			t.Fatal("per-page scaling wrong")
		}
	}
	cdf, err := stats.NewCDF(obs)
	if err != nil {
		t.Fatal(err)
	}
	// 90% of user-weighted transitions regress by less than a few ms.
	if q := cdf.Quantile(0.90); q > 6 {
		t.Errorf("p90 regression %.1f ms too large", q)
	}
}

func TestLocations(t *testing.T) {
	g, _ := buildWorld(t)
	locs := Locations(g, 1e9)
	if len(locs) == 0 {
		t.Fatal("no locations")
	}
	var sum float64
	for _, l := range locs {
		if l.Users <= 0 {
			t.Fatal("location without users")
		}
		sum += l.Users
	}
	if math.Abs(sum-1e9) > 1 {
		t.Errorf("users sum to %.0f", sum)
	}
}

func TestBuildValidation(t *testing.T) {
	regions := geo.GenerateRegions(map[geo.Continent]int{geo.Europe: 5}, rand.New(rand.NewSource(1)))
	g, err := topology.New(topology.Config{Seed: 1, NumTier1: 3, NumTransit: 5, NumEyeball: 20}, regions)
	if err != nil {
		t.Fatal(err)
	}
	// More front-ends than regions must fail: the largest ring has 110.
	if _, err := AddNetwork(g, Config{}, 2); err == nil {
		t.Error("110 front-ends accepted on 5 regions")
	}
	// So must a ring with more front-ends than the network has PoPs.
	as := g.AddCDNAS("cdn", []geo.Coord{regions[0].Center, regions[1].Center, regions[2].Center})
	if _, err := Build(context.Background(), g, as, latency.DefaultModel()); err == nil {
		t.Error("ring larger than the PoP set accepted")
	}
}

func TestPaperAppsShares(t *testing.T) {
	apps := PaperApps()
	var sum float64
	for _, a := range apps {
		sum += a.TrafficShare
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("traffic shares sum to %v", sum)
	}
}

func TestAppLatencies(t *testing.T) {
	g, c := buildWorld(t)
	locs := Locations(g, 1e9)
	rows, err := c.AppLatencies(context.Background(), locs, PaperApps(), 23)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	byRing := map[string]AppLatencyRow{}
	for _, r := range rows {
		if r.MedianRTTMs <= 0 {
			t.Fatalf("bad median for %s", r.App.Name)
		}
		byRing[r.App.Ring] = r
	}
	// Stricter compliance (smaller ring) should cost latency, and the
	// largest ring costs ~nothing versus itself.
	if math.Abs(byRing["R110"].RegulatoryCostMs) > 1 {
		t.Errorf("R110 regulatory cost = %.1f, want ~0", byRing["R110"].RegulatoryCostMs)
	}
	if byRing["R28"].RegulatoryCostMs <= byRing["R110"].RegulatoryCostMs {
		t.Errorf("R28 cost %.1f not above R110 cost %.1f",
			byRing["R28"].RegulatoryCostMs, byRing["R110"].RegulatoryCostMs)
	}
	// The traffic-weighted median sits between the extremes.
	mix := TrafficWeightedMedianMs(rows)
	if mix < byRing["R110"].MedianRTTMs-1 || mix > byRing["R28"].MedianRTTMs+1 {
		t.Errorf("mix median %.1f outside [%.1f, %.1f]",
			mix, byRing["R110"].MedianRTTMs, byRing["R28"].MedianRTTMs)
	}
	// Unknown ring rejected.
	if _, err := c.AppLatencies(context.Background(), locs, []AppProfile{{Name: "x", Ring: "R999"}}, 23); err == nil {
		t.Error("unknown ring accepted")
	}
	if TrafficWeightedMedianMs(nil) != 0 {
		t.Error("empty mix should be 0")
	}
}
