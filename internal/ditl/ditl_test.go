package ditl

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"

	"anycastctx/internal/anycastnet"
	"anycastctx/internal/bgp"
	"anycastctx/internal/dnssim"
	"anycastctx/internal/geo"
	"anycastctx/internal/latency"
	"anycastctx/internal/topology"
	"anycastctx/internal/users"
)

// fixture bundles a small world for campaign tests.
type fixture struct {
	g       *topology.Graph
	pop     *users.Population
	rates   []dnssim.Rates
	letters []*anycastnet.Deployment
	camp    *Campaign
	cdn     *users.CDNCounts
}

func buildFixture(t testing.TB) *fixture {
	t.Helper()
	regions := geo.GenerateRegions(geo.PaperRegionCounts, rand.New(rand.NewSource(42)))
	g, err := topology.New(topology.Config{Seed: 4, NumTier1: 6, NumTransit: 40, NumEyeball: 400}, regions)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	public := users.AddPublicDNS(g)
	specs := []anycastnet.LetterSpec{
		{Letter: "B", GlobalSites: 2, TotalSites: 2, Openness: 0.1},
		{Letter: "C", GlobalSites: 10, TotalSites: 10, Openness: 0.26},
		{Letter: "K", GlobalSites: 30, TotalSites: 31, Openness: 0.3},
	}
	letterSites := make([][]bgp.Site, len(specs))
	for i, spec := range specs {
		if letterSites[i], err = anycastnet.AddLetterSites(g, spec, rng); err != nil {
			t.Fatal(err)
		}
	}
	pop, err := users.Build(g, public, 5e8, 5)
	if err != nil {
		t.Fatal(err)
	}
	zone := dnssim.NewZone(500, 5)
	rates := dnssim.ComputeRates(pop, zone, 5)
	letters := make([]*anycastnet.Deployment, len(specs))
	for i, spec := range specs {
		if letters[i], err = anycastnet.NewDeployment(g, spec.Letter, letterSites[i]); err != nil {
			t.Fatal(err)
		}
	}
	camp, err := Build(context.Background(), g, letters, pop, zone, rates, latency.DefaultModel(), Config{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	cdn := users.BuildCDNCounts(pop, 5)
	return &fixture{g: g, pop: pop, rates: rates, letters: letters, camp: camp, cdn: cdn}
}

func TestBuildValidation(t *testing.T) {
	f := buildFixture(t)
	if _, err := Build(context.Background(), f.g, nil, f.pop, nil, f.rates, latency.DefaultModel(), Config{}, 1); err == nil {
		t.Error("no letters accepted")
	}
	if _, err := Build(context.Background(), f.g, f.letters, f.pop, nil, f.rates[:3], latency.DefaultModel(), Config{}, 1); err == nil {
		t.Error("mismatched rates accepted")
	}
}

func TestCampaignAssignments(t *testing.T) {
	f := buildFixture(t)
	c := f.camp
	if len(c.Letters) != 3 {
		t.Fatalf("letters = %d", len(c.Letters))
	}
	if c.NumRecursives() != len(f.pop.Recursives) {
		t.Fatalf("recursives = %d, want %d", c.NumRecursives(), len(f.pop.Recursives))
	}
	for ri := range f.pop.Recursives {
		var wsum float64
		for li := range c.Letters {
			a := c.At(li, ri)
			wsum += a.LetterWeight
			if !a.Reachable {
				continue
			}
			if a.BaseRTTMs <= 0 {
				t.Fatalf("rec %d letter %d RTT %v", ri, li, a.BaseRTTMs)
			}
			var fsum float64
			for _, s := range a.Sites() {
				if s.SiteID < 0 || s.SiteID >= len(f.letters[li].Sites) {
					t.Fatalf("site ID %d out of range", s.SiteID)
				}
				fsum += s.Frac
			}
			if math.Abs(fsum-1) > 1e-9 {
				t.Fatalf("site shares sum to %v", fsum)
			}
			if ff := a.FavoriteFrac(); ff < 0.5 || ff > 1 {
				t.Fatalf("favorite frac %v", ff)
			}
		}
		if math.Abs(wsum-1) > 1e-9 {
			t.Fatalf("letter weights sum to %v for rec %d", wsum, ri)
		}
	}
	var anyEgress bool
	for ri := range f.pop.Recursives {
		if len(c.Egress(ri)) > 0 {
			anyEgress = true
			break
		}
	}
	if !anyEgress {
		t.Fatal("no egress IPs")
	}
	if len(c.JunkSources) == 0 || c.JunkQueriesPerDay <= 0 {
		t.Error("no junk sources")
	}
}

func TestLetterPreferenceFavorsLowLatency(t *testing.T) {
	f := buildFixture(t)
	c := f.camp
	// For each recursive, the letter with the lowest base RTT should carry
	// (on average) the largest weight.
	agree, total := 0, 0
	for ri := range f.pop.Recursives {
		bestRTT, bestW := -1, -1
		for li := range c.Letters {
			a := c.At(li, ri)
			if !a.Reachable {
				continue
			}
			if bestRTT == -1 || a.BaseRTTMs < c.At(bestRTT, ri).BaseRTTMs {
				bestRTT = li
			}
			if bestW == -1 || a.LetterWeight > c.At(bestW, ri).LetterWeight {
				bestW = li
			}
		}
		if bestRTT == -1 {
			continue
		}
		total++
		if bestRTT == bestW {
			agree++
		}
	}
	if frac := float64(agree) / float64(total); frac < 0.7 {
		t.Errorf("lowest-RTT letter preferred only %.2f of the time", frac)
	}
}

func TestMostSlash24sSingleSite(t *testing.T) {
	// Fig 10: for every letter, >80% of /24s send all queries to one site.
	f := buildFixture(t)
	for li := range f.camp.Letters {
		single, total := 0, 0
		for ri := range f.pop.Recursives {
			a := f.camp.At(li, ri)
			if !a.Reachable {
				continue
			}
			total++
			if a.NumSites() == 1 {
				single++
			}
		}
		if frac := float64(single) / float64(total); frac < 0.8 {
			t.Errorf("letter %s: single-site /24s = %.2f", f.camp.LetterNames[li], frac)
		}
	}
}

func TestTCPMediansPartialCoverage(t *testing.T) {
	f := buildFixture(t)
	// Some recursives (big ones) have TCP medians; small ones do not.
	var with, without int
	for ri := range f.pop.Recursives {
		a := f.camp.At(2, ri) // biggest letter
		if !a.Reachable {
			continue
		}
		if math.IsNaN(a.TCPMedianRTTMs) {
			without++
		} else {
			with++
			if a.TCPMedianRTTMs <= 0 {
				t.Fatalf("bad TCP median %v", a.TCPMedianRTTMs)
			}
		}
	}
	if with == 0 || without == 0 {
		t.Errorf("TCP medians: with=%d without=%d (want both)", with, without)
	}
}

func TestPreprocessFunnel(t *testing.T) {
	f := buildFixture(t)
	s := f.camp.Preprocess()
	if s.RawPerDay <= s.RetainedPerDay {
		t.Error("preprocessing removed nothing")
	}
	if s.InvalidPerDay <= 0 || s.PTRPerDay <= 0 {
		t.Error("no junk/PTR volume")
	}
	// Junk dominates, as in the paper (31B of 51.9B).
	if s.InvalidPerDay < s.RetainedPerDay {
		t.Errorf("invalid %.0f should exceed retained %.0f", s.InvalidPerDay, s.RetainedPerDay)
	}
	wantRetained := (s.RawPerDay - s.InvalidPerDay - s.PTRPerDay) * (1 - 0.12 - 0.07)
	if math.Abs(s.RetainedPerDay-wantRetained)/wantRetained > 1e-9 {
		t.Errorf("retained = %.0f, want %.0f", s.RetainedPerDay, wantRetained)
	}
}

func TestJoinCDNSlash24VsByIP(t *testing.T) {
	f := buildFixture(t)
	j24 := f.camp.JoinCDNCtx(context.Background(), f.cdn, false)
	jIP := f.camp.JoinCDNCtx(context.Background(), f.cdn, true)
	if len(j24.Rows) == 0 {
		t.Fatal("empty /24 join")
	}
	// The /24 join must retain far more recursives and volume than the
	// exact-IP join (Table 4's motivation).
	if len(jIP.Rows) >= len(j24.Rows) {
		t.Errorf("IP join rows %d >= /24 join rows %d", len(jIP.Rows), len(j24.Rows))
	}
	if totalQueries(jIP) >= totalQueries(j24) {
		t.Errorf("IP join volume %.0f >= /24 join volume %.0f", totalQueries(jIP), totalQueries(j24))
	}
	if !jIP.ByIP || j24.ByIP {
		t.Error("ByIP flags wrong")
	}
	for _, r := range j24.Rows {
		if r.Users <= 0 || r.QueriesPerDay < 0 {
			t.Fatalf("bad row %+v", r)
		}
	}
}

func TestOverlapTable4Shape(t *testing.T) {
	f := buildFixture(t)
	exact := f.camp.Overlap(f.cdn, true)
	joined := f.camp.Overlap(f.cdn, false)
	// Every measure increases with the /24 join.
	if joined.DITLRecursives <= exact.DITLRecursives {
		t.Errorf("DITL recursives: exact %.3f, joined %.3f", exact.DITLRecursives, joined.DITLRecursives)
	}
	if joined.DITLVolume <= exact.DITLVolume {
		t.Errorf("DITL volume: exact %.3f, joined %.3f", exact.DITLVolume, joined.DITLVolume)
	}
	if joined.CDNVolume <= exact.CDNVolume {
		t.Errorf("CDN volume: exact %.3f, joined %.3f", exact.CDNVolume, joined.CDNVolume)
	}
	// Rough magnitudes: exact-IP volume small, joined volume large
	// (paper: 8.4% → 72.2%).
	if exact.DITLVolume > 0.4 {
		t.Errorf("exact-IP DITL volume %.3f too high", exact.DITLVolume)
	}
	if joined.DITLVolume < 0.5 {
		t.Errorf("joined DITL volume %.3f too low", joined.DITLVolume)
	}
	for _, v := range []float64{exact.DITLRecursives, exact.DITLVolume, exact.CDNRecursives, exact.CDNVolume,
		joined.DITLRecursives, joined.DITLVolume, joined.CDNRecursives, joined.CDNVolume} {
		if v < 0 || v > 1 {
			t.Fatalf("overlap fraction %v out of range", v)
		}
	}
}

func TestLetterIndex(t *testing.T) {
	f := buildFixture(t)
	if f.camp.LetterIndex("C") != 1 {
		t.Error("LetterIndex C wrong")
	}
	if f.camp.LetterIndex("Z") != -1 {
		t.Error("LetterIndex unknown should be -1")
	}
}

func TestEmitAndSummarizeCapture(t *testing.T) {
	f := buildFixture(t)
	var buf bytes.Buffer
	n, err := f.camp.EmitSiteCapture(&buf, 1, 0, 3000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no packets emitted")
	}
	if n > 3000 {
		t.Fatalf("emitted %d > budget", n)
	}
	sum, err := SummarizeCapture(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Packets != n {
		t.Errorf("summary packets %d != emitted %d", sum.Packets, n)
	}
	if sum.UDPQueries == 0 {
		t.Error("no UDP queries decoded")
	}
	if len(sum.Sources) == 0 {
		t.Error("no sources decoded")
	}
	if sum.FirstToLast <= 0 {
		t.Error("timestamps not spread")
	}
	// Captures should include some TCP and some responses.
	if sum.TCPPackets == 0 {
		t.Error("no TCP packets in capture")
	}
	if sum.Responses == 0 {
		t.Error("no responses in capture")
	}
}

func TestEmitCaptureValidation(t *testing.T) {
	f := buildFixture(t)
	var buf bytes.Buffer
	if _, err := f.camp.EmitSiteCapture(&buf, 99, 0, 10, 8); err == nil {
		t.Error("bad letter accepted")
	}
	if _, err := f.camp.EmitSiteCapture(&buf, 0, 99, 10, 8); err == nil {
		t.Error("bad site accepted")
	}
}

func TestLetterAnycastAddrStable(t *testing.T) {
	a := LetterAnycastAddr(2)
	if a != LetterAnycastAddr(2) {
		t.Error("anycast addr not stable")
	}
	if LetterAnycastAddr(0) == LetterAnycastAddr(1) {
		t.Error("letters share an address")
	}
}

// totalQueries sums a join's daily query volumes.
func totalQueries(j *Join) float64 {
	var s float64
	for _, r := range j.Rows {
		s += r.QueriesPerDay
	}
	return s
}
