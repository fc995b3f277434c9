package dnssim

import (
	"math/rand"
	"testing"

	"anycastctx/internal/geo"
	"anycastctx/internal/topology"
	"anycastctx/internal/users"
)

func buildPop(t *testing.T) *users.Population {
	t.Helper()
	regions := geo.GenerateRegions(geo.PaperRegionCounts, rand.New(rand.NewSource(42)))
	g, err := topology.New(topology.Config{Seed: 11, NumTier1: 6, NumTransit: 40, NumEyeball: 400}, regions)
	if err != nil {
		t.Fatal(err)
	}
	p, err := users.Build(g, users.AddPublicDNS(g), 5e8, 5)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestComputeRatesBasics(t *testing.T) {
	pop := buildPop(t)
	z := testZone(t)
	rates := ComputeRates(pop, z, 9)
	if len(rates) != len(pop.Recursives) {
		t.Fatalf("rates = %d, recursives = %d", len(rates), len(pop.Recursives))
	}
	anomalous := 0
	for _, r := range rates {
		if r.RootValidPerDay < 0 || r.RootInvalidPerDay < 0 || r.RootPTRPerDay < 0 {
			t.Fatal("negative rate")
		}
		if r.Rec == nil {
			t.Fatal("nil recursive")
		}
		if r.TCPShare < 0 || r.TCPShare > 1 {
			t.Fatalf("TCP share %v", r.TCPShare)
		}
		if r.Anomalous {
			anomalous++
		}
		if r.IdealPerDay != float64(z.Len())/2 {
			t.Fatalf("ideal = %v, want %v", r.IdealPerDay, float64(z.Len())/2)
		}
		if got := r.RootTotalPerDay(); got != r.RootValidPerDay+r.RootInvalidPerDay+r.RootPTRPerDay {
			t.Fatal("RootTotalPerDay wrong")
		}
	}
	if anomalous == 0 || anomalous > len(rates)/5 {
		t.Errorf("anomalous recursives = %d of %d", anomalous, len(rates))
	}
}

func TestRatesShapeMatchesPaperNarrative(t *testing.T) {
	// Invalid junk should dominate valid traffic in aggregate (the paper
	// discards 31B of 51.9B daily queries as junk — roughly 1.7x the
	// retained valid volume), and PTR should be a small slice (~2B).
	pop := buildPop(t)
	z := testZone(t)
	rates := ComputeRates(pop, z, 10)
	var valid, invalid, ptr float64
	for _, r := range rates {
		valid += r.RootValidPerDay
		invalid += r.RootInvalidPerDay
		ptr += r.RootPTRPerDay
	}
	if valid <= 0 || invalid <= 0 || ptr <= 0 {
		t.Fatal("zero aggregate volume")
	}
	ratio := invalid / valid
	if ratio < 0.8 || ratio > 30 {
		t.Errorf("invalid/valid ratio = %.2f, want junk-dominated", ratio)
	}
	if ptr >= invalid {
		t.Errorf("PTR %.0f should be far below junk %.0f", ptr, invalid)
	}
	// Per-user valid rate at the median should land near ~1/day: the
	// paper's central Fig 3 result.
	var obs []float64
	var weights []float64
	for _, r := range rates {
		if r.Rec.Users < 1 {
			continue
		}
		obs = append(obs, r.RootValidPerDay/r.Rec.Users)
		weights = append(weights, r.Rec.Users)
	}
	med := weightedMedian(obs, weights)
	if med < 0.1 || med > 10 {
		t.Errorf("median queries/user/day = %.3f, want ~1", med)
	}
}

func weightedMedian(vals, weights []float64) float64 {
	type pair struct{ v, w float64 }
	ps := make([]pair, len(vals))
	var total float64
	for i := range vals {
		ps[i] = pair{vals[i], weights[i]}
		total += weights[i]
	}
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j].v < ps[j-1].v; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
	var acc float64
	for _, p := range ps {
		acc += p.w
		if acc >= total/2 {
			return p.v
		}
	}
	return 0
}

func TestRatesDeterministic(t *testing.T) {
	pop := buildPop(t)
	z := testZone(t)
	a := ComputeRates(pop, z, 3)
	b := ComputeRates(pop, z, 3)
	for i := range a {
		if a[i].RootValidPerDay != b[i].RootValidPerDay {
			t.Fatalf("rates differ at %d", i)
		}
	}
}
