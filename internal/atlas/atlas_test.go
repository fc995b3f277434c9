package atlas

import (
	"math/rand"
	"testing"

	"anycastctx/internal/anycastnet"
	"anycastctx/internal/geo"
	"anycastctx/internal/latency"
	"anycastctx/internal/topology"
)

func buildWorld(t *testing.T) (*topology.Graph, *anycastnet.Deployment, *Platform) {
	t.Helper()
	regions := geo.GenerateRegions(geo.PaperRegionCounts, rand.New(rand.NewSource(42)))
	g, err := topology.New(topology.Config{Seed: 31, NumTier1: 6, NumTransit: 40, NumEyeball: 500}, regions)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	sites, err := anycastnet.AddLetterSites(g, anycastnet.LetterSpec{
		Letter: "K", GlobalSites: 20, TotalSites: 20, Openness: 0.3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := anycastnet.NewDeployment(g, "K", sites)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Deploy(g, latency.DefaultModel(), 300, 2)
	if err != nil {
		t.Fatal(err)
	}
	return g, dep, p
}

func TestDeploy(t *testing.T) {
	g, _, p := buildWorld(t)
	if len(p.Probes) != 300 {
		t.Fatalf("probes = %d", len(p.Probes))
	}
	for _, pr := range p.Probes {
		as := g.AS(pr.ASN)
		if as == nil || as.Class != topology.ClassEyeball {
			t.Fatalf("probe %d in non-eyeball AS", pr.ID)
		}
		if l := pr.Loc; l.Lat < -90 || l.Lat > 90 || l.Lon < -180 || l.Lon > 180 {
			t.Fatalf("probe %d invalid location", pr.ID)
		}
	}
	// Coverage is limited: far fewer ASes than probes or eyeballs.
	n := p.ASCount()
	if n == 0 || n > len(g.Eyeballs()) {
		t.Errorf("AS coverage = %d", n)
	}
}

func TestDeployNoEyeballs(t *testing.T) {
	regions := geo.GenerateRegions(map[geo.Continent]int{geo.Europe: 2}, rand.New(rand.NewSource(1)))
	g, err := topology.New(topology.Config{Seed: 1, NumTier1: 3, NumTransit: 3, NumEyeball: 1}, regions)
	if err != nil {
		t.Fatal(err)
	}
	// Can't build a graph with zero eyeballs via config, so exercise the
	// happy path minimally instead.
	p, err := Deploy(g, latency.DefaultModel(), 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Probes) != 5 {
		t.Errorf("probes = %d", len(p.Probes))
	}
}

func TestCoverageBiasTowardWellPeered(t *testing.T) {
	g, _, p := buildWorld(t)
	// Mean richness of probe-hosting ASes should exceed the eyeball mean.
	var probeMean, allMean float64
	seen := map[topology.ASN]bool{}
	for _, pr := range p.Probes {
		probeMean += g.AS(pr.ASN).PeeringRichness
		seen[pr.ASN] = true
	}
	probeMean /= float64(len(p.Probes))
	for _, e := range g.Eyeballs() {
		allMean += g.AS(e).PeeringRichness
	}
	allMean /= float64(len(g.Eyeballs()))
	if probeMean <= allMean {
		t.Errorf("probe AS richness %.3f not above population %.3f", probeMean, allMean)
	}
}

func TestPing(t *testing.T) {
	_, dep, p := buildWorld(t)
	res := p.Ping(dep, 3, 4)
	if len(res) == 0 {
		t.Fatal("no ping results")
	}
	for _, r := range res {
		if r.RTTMs <= 0 || r.RTTMs > 2000 {
			t.Fatalf("RTT %v out of range", r.RTTMs)
		}
		if r.SiteID < 0 || r.SiteID >= dep.NumSites() {
			t.Fatalf("site %d out of range", r.SiteID)
		}
	}
	// Default sample count path.
	res2 := p.Ping(dep, 0, 4)
	if len(res2) != len(res) {
		t.Error("default samples changed result count")
	}
}

func TestTraceroute(t *testing.T) {
	_, dep, p := buildWorld(t)
	res := p.Traceroute(dep)
	if len(res) == 0 {
		t.Fatal("no traceroutes")
	}
	hist := map[int]int{}
	for _, r := range res {
		if r.PathLen < 2 || r.PathLen > 5 {
			t.Fatalf("path length %d", r.PathLen)
		}
		hist[r.PathLen]++
	}
	if len(hist) < 2 {
		t.Errorf("path length distribution degenerate: %v", hist)
	}
}

func TestPingDeterministicPlacement(t *testing.T) {
	regions := geo.GenerateRegions(geo.PaperRegionCounts, rand.New(rand.NewSource(42)))
	g1, _ := topology.New(topology.Config{Seed: 31, NumTier1: 6, NumTransit: 40, NumEyeball: 500}, regions)
	g2, _ := topology.New(topology.Config{Seed: 31, NumTier1: 6, NumTransit: 40, NumEyeball: 500}, regions)
	p1, err := Deploy(g1, latency.DefaultModel(), 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Deploy(g2, latency.DefaultModel(), 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p1.Probes {
		if p1.Probes[i].ASN != p2.Probes[i].ASN {
			t.Fatalf("probe %d placement differs", i)
		}
	}
}
