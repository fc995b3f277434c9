package users

import (
	"math"
	"math/rand"
	"testing"

	"anycastctx/internal/geo"
	"anycastctx/internal/ipaddr"
	"anycastctx/internal/topology"
)

func buildGraph(t *testing.T) *topology.Graph {
	t.Helper()
	regions := geo.GenerateRegions(geo.PaperRegionCounts, rand.New(rand.NewSource(42)))
	g, err := topology.New(topology.Config{Seed: 11, NumTier1: 6, NumTransit: 40, NumEyeball: 500}, regions)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func buildPop(t *testing.T, g *topology.Graph) *Population {
	t.Helper()
	p, err := Build(g, AddPublicDNS(g), 1e8, 5)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBuildPopulationBasics(t *testing.T) {
	g := buildGraph(t)
	p := buildPop(t, g)
	if len(p.Recursives) < len(g.Eyeballs()) {
		t.Errorf("recursives %d < eyeballs %d", len(p.Recursives), len(g.Eyeballs()))
	}
	if len(p.PublicASNs) != 3 {
		t.Errorf("public ASNs = %d", len(p.PublicASNs))
	}
	seen := map[ipaddr.Slash24Key]bool{}
	for _, r := range p.Recursives {
		if seen[r.Key] {
			t.Fatalf("duplicate recursive /24 %s", r.Key)
		}
		seen[r.Key] = true
		if len(r.IPs) == 0 || len(r.IPs) > 5 {
			t.Errorf("recursive %s has %d IPs", r.Key, len(r.IPs))
		}
		for _, ip := range r.IPs {
			if ipaddr.Key24(ip) != r.Key {
				t.Errorf("IP %s outside its /24 %s", ip, r.Key)
			}
			if got, ok := p.ByKey(ipaddr.Key24(ip)); !ok || got.ASN != r.ASN {
				t.Errorf("/24 lookup for %s does not find its recursive in AS%d", ip, r.ASN)
			}
		}
		if r.Users < 0 {
			t.Errorf("negative users for %s", r.Key)
		}
	}
}

func TestUserConservation(t *testing.T) {
	g := buildGraph(t)
	p := buildPop(t, g)
	served := p.UsersServed()
	if math.Abs(served-p.TotalUsers)/p.TotalUsers > 0.01 {
		t.Errorf("users served %.0f vs total %.0f", served, p.TotalUsers)
	}
}

func TestPublicResolversCarryUsers(t *testing.T) {
	g := buildGraph(t)
	p := buildPop(t, g)
	var pub float64
	for _, r := range p.Recursives {
		if r.Public {
			pub += r.Users
		}
	}
	frac := pub / p.TotalUsers
	if frac < 0.03 || frac > 0.3 {
		t.Errorf("public DNS user share = %.3f, want ~0.12", frac)
	}
}

func TestLookups(t *testing.T) {
	g := buildGraph(t)
	p := buildPop(t, g)
	r0 := p.Recursives[0]
	got, ok := p.ByKey(r0.Key)
	if !ok || got.Key != r0.Key {
		t.Error("ByKey failed")
	}
	if _, ok := p.ByKey(ipaddr.Slash24Key(0xFFFFFF)); ok {
		t.Error("ByKey hit for unknown key")
	}
	asn := g.Eyeballs()[0]
	if countIn(p, asn) == 0 {
		t.Fatalf("no recursives for eyeball %d", asn)
	}
}

// countIn counts the recursives hosted in asn.
func countIn(p *Population, asn topology.ASN) int {
	n := 0
	for _, r := range p.Recursives {
		if r.ASN == asn {
			n++
		}
	}
	return n
}

func TestBiggerASesGetMoreRecursives(t *testing.T) {
	g := buildGraph(t)
	p := buildPop(t, g)
	// Find the biggest and a small eyeball.
	var big, small topology.ASN
	var bigW, smallW float64 = 0, math.Inf(1)
	for _, asn := range g.Eyeballs() {
		w := g.AS(asn).UserWeight
		if w > bigW {
			big, bigW = asn, w
		}
		if w < smallW {
			small, smallW = asn, w
		}
	}
	if countIn(p, big) < countIn(p, small) {
		t.Errorf("big AS has %d recursives, small has %d", countIn(p, big), countIn(p, small))
	}
}

func TestBuildDeterministic(t *testing.T) {
	g1 := buildGraph(t)
	g2 := buildGraph(t)
	p1, err := Build(g1, AddPublicDNS(g1), 1e8, 9)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Build(g2, AddPublicDNS(g2), 1e8, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(p1.Recursives) != len(p2.Recursives) {
		t.Fatal("recursive counts differ")
	}
	for i := range p1.Recursives {
		a, b := p1.Recursives[i], p2.Recursives[i]
		if a.Key != b.Key || a.Users != b.Users || len(a.IPs) != len(b.IPs) {
			t.Fatalf("recursive %d differs", i)
		}
	}
}

func TestCDNCounts(t *testing.T) {
	g := buildGraph(t)
	p := buildPop(t, g)
	c := BuildCDNCounts(p, 13)
	if len(c.By24) == 0 || len(c.ByIP) == 0 {
		t.Fatal("empty CDN counts")
	}
	// Undercount: total must be below ground truth but not tiny.
	total := c.TotalBy24()
	if total >= p.TotalUsers {
		t.Errorf("CDN counts %f not undercounted vs %f", total, p.TotalUsers)
	}
	if total < p.TotalUsers*0.2 {
		t.Errorf("CDN counts %f implausibly low", total)
	}
	// /24 totals equal the sum of their IP counts.
	sum24 := map[ipaddr.Slash24Key]float64{}
	for ip, v := range c.ByIP {
		sum24[ipaddr.Key24(ip)] += v
	}
	for k, v := range c.By24 {
		if math.Abs(sum24[k]-v) > 1e-6 {
			t.Fatalf("By24[%s] = %f, sum of IPs = %f", k, v, sum24[k])
		}
	}
	// IP-level coverage should be well below /24-level coverage: that gap
	// is what makes the paper's /24 join worthwhile (Table 4).
	var recIPs, recCovered, rec24Covered int
	for _, r := range p.Recursives {
		recIPs += len(r.IPs)
		for _, ip := range r.IPs {
			if _, ok := c.ByIP[ip]; ok {
				recCovered++
			}
		}
		if _, ok := c.By24[r.Key]; ok {
			rec24Covered++
		}
	}
	ipCov := float64(recCovered) / float64(recIPs)
	cov24 := float64(rec24Covered) / float64(len(p.Recursives))
	if ipCov >= cov24 {
		t.Errorf("IP coverage %.2f should be below /24 coverage %.2f", ipCov, cov24)
	}
}

func TestAPNICCounts(t *testing.T) {
	g := buildGraph(t)
	p := buildPop(t, g)
	a := BuildAPNICCounts(g, p, 17)
	if len(a.ByASN) == 0 {
		t.Fatal("empty APNIC counts")
	}
	// Within a factor ~[0.6, 1.6] in aggregate.
	total := a.WeightedUsers()
	if total < p.TotalUsers*0.5 || total > p.TotalUsers*2 {
		t.Errorf("APNIC total %f vs truth %f", total, p.TotalUsers)
	}
	// Public resolver ASes must not appear (they have no "home" users).
	for _, pub := range p.PublicASNs {
		if _, ok := a.ByASN[pub]; ok {
			t.Errorf("public resolver AS %d in APNIC data", pub)
		}
	}
	// Per-AS estimates are within the noise band.
	for _, asn := range g.Eyeballs() {
		est, ok := a.ByASN[asn]
		if !ok {
			continue
		}
		truth := g.AS(asn).UserWeight * p.TotalUsers
		if math.Abs(est-truth)/truth > 0.61 {
			t.Fatalf("AS%d estimate %.0f too far from truth %.0f", asn, est, truth)
		}
	}
}
