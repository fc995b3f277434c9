package anycastnet

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"anycastctx/internal/geo"
	"anycastctx/internal/topology"
)

func buildGraph(t *testing.T) *topology.Graph {
	t.Helper()
	regions := geo.GenerateRegions(geo.PaperRegionCounts, rand.New(rand.NewSource(42)))
	g, err := topology.New(topology.Config{Seed: 3, NumTier1: 6, NumTransit: 50, NumEyeball: 600}, regions)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// buildLetter adds spec's sites to g and deploys the letter on them.
func buildLetter(g *topology.Graph, spec LetterSpec, rng *rand.Rand) (*Deployment, error) {
	sites, err := AddLetterSites(g, spec, rng)
	if err != nil {
		return nil, err
	}
	return NewDeployment(g, spec.Letter, sites)
}

func TestLetterSpecsInventory(t *testing.T) {
	specs := Letters2018()
	if len(specs) != 10 {
		t.Fatalf("2018 letters = %d, want 10", len(specs))
	}
	want := map[string][2]int{
		"A": {5, 5}, "B": {2, 2}, "C": {10, 10}, "D": {20, 117}, "E": {15, 85},
		"F": {94, 141}, "J": {68, 110}, "K": {52, 53}, "L": {138, 138}, "M": {5, 6},
	}
	for _, s := range specs {
		w, ok := want[s.Letter]
		if !ok {
			t.Errorf("unexpected letter %s", s.Letter)
			continue
		}
		if s.GlobalSites != w[0] || s.TotalSites != w[1] {
			t.Errorf("letter %s = %d/%d, want %d/%d", s.Letter, s.GlobalSites, s.TotalSites, w[0], w[1])
		}
		if s.Openness <= 0 || s.Openness > 1 {
			t.Errorf("letter %s openness %v out of range", s.Letter, s.Openness)
		}
	}
	if len(Letters2020()) != 7 {
		t.Errorf("2020 letters = %d, want 7", len(Letters2020()))
	}
	if !TCPLatencyLetters2018["C"] || TCPLatencyLetters2018["D"] || TCPLatencyLetters2018["L"] {
		t.Error("TCP latency letter set wrong (must exclude D and L)")
	}
}

func TestBuildLetterValidation(t *testing.T) {
	g := buildGraph(t)
	rng := rand.New(rand.NewSource(1))
	if _, err := AddLetterSites(g, LetterSpec{Letter: "X", GlobalSites: 0}, rng); err == nil {
		t.Error("zero global sites accepted")
	}
	if _, err := AddLetterSites(g, LetterSpec{Letter: "X", GlobalSites: 5, TotalSites: 3}, rng); err == nil {
		t.Error("total < global accepted")
	}
}

func TestBuildLetterStructure(t *testing.T) {
	g := buildGraph(t)
	rng := rand.New(rand.NewSource(2))
	d, err := buildLetter(g, LetterSpec{Letter: "D", GlobalSites: 20, TotalSites: 40, Openness: 0.2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumSites() != 40 || d.NumGlobalSites() != 20 {
		t.Errorf("sites = %d/%d", d.NumGlobalSites(), d.NumSites())
	}
	for i, s := range d.Sites {
		if s.ID != i {
			t.Errorf("site %d has ID %d", i, s.ID)
		}
		host := g.AS(s.Host)
		if host == nil {
			t.Fatalf("site %d host missing", i)
		}
		if host.Class != topology.ClassHost {
			t.Errorf("site %d host class %v", i, host.Class)
		}
		if len(host.Providers) == 0 {
			t.Errorf("site %d host has no upstreams", i)
		}
	}
	// Every eyeball resolves.
	for _, e := range g.Eyeballs() {
		if _, ok := d.Route(e); !ok {
			t.Fatalf("no route for %d", e)
		}
	}
}

func TestSharedHostDeployment(t *testing.T) {
	g := buildGraph(t)
	rng := rand.New(rand.NewSource(3))
	d, err := buildLetter(g, LetterSpec{
		Letter: "F", GlobalSites: 20, TotalSites: 20, Openness: 0.5, SharedHostFraction: 0.5,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	// The first half of global sites share one host AS with multi-site presence.
	first := d.Sites[0].Host
	shared := 0
	for _, s := range d.Sites {
		if s.Host == first {
			shared++
		}
	}
	if shared != 10 {
		t.Errorf("shared-host sites = %d, want 10", shared)
	}
	if got := len(g.AS(first).Presence); got != 10 {
		t.Errorf("shared host presence = %d, want 10", got)
	}
	for _, s := range d.Sites[:10] {
		if loc, km := g.AS(first).NearestPresence(s.Loc); loc != s.Loc || km != 0 {
			t.Errorf("site %d: shared host's nearest presence %v at %.1f km, want the site itself", s.ID, loc, km)
		}
	}
}

func TestGlobalSitesPlacedNearPopulation(t *testing.T) {
	g := buildGraph(t)
	rng := rand.New(rand.NewSource(4))
	d, err := buildLetter(g, LetterSpec{Letter: "K", GlobalSites: 30, TotalSites: 30, Openness: 0.3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Sites should sit in the heaviest regions: compute the total user
	// weight within 500 km of any site; it should be a majority.
	var covered, total float64
	for _, e := range g.Eyeballs() {
		as := g.AS(e)
		total += as.UserWeight
		if _, dKm := nearestSite(d, as.Loc); dKm < 500 {
			covered += as.UserWeight
		}
	}
	if covered/total < 0.5 {
		t.Errorf("only %.2f of users within 500 km of a site", covered/total)
	}
}

func nearestSite(d *Deployment, loc geo.Coord) (int, float64) {
	return d.ClosestGlobalSite(loc)
}

func TestClosestGlobalSite(t *testing.T) {
	g := buildGraph(t)
	rng := rand.New(rand.NewSource(5))
	d, err := buildLetter(g, LetterSpec{Letter: "A", GlobalSites: 5, TotalSites: 6, Openness: 0.2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	id, dist := d.ClosestGlobalSite(d.Sites[2].Loc)
	if id != 2 || dist > 1 {
		t.Errorf("closest = %d at %f km", id, dist)
	}
	// Local site (index 5) must never be returned.
	id2, _ := d.ClosestGlobalSite(d.Sites[5].Loc)
	if !d.Sites[id2].Global {
		t.Error("ClosestGlobalSite returned a local site")
	}
}

func TestBuildLettersAll2018(t *testing.T) {
	g := buildGraph(t)
	rng := rand.New(rand.NewSource(6))
	var ds []*Deployment
	for _, spec := range Letters2018() {
		d, err := buildLetter(g, spec, rng)
		if err != nil {
			t.Fatal(err)
		}
		ds = append(ds, d)
	}
	if len(ds) != 10 {
		t.Fatalf("deployments = %d", len(ds))
	}
	for _, d := range ds {
		if d.NumGlobalSites() == 0 {
			t.Errorf("letter %s has no global sites", d.Name)
		}
	}
}

func TestOpennessDrivesDirectPaths(t *testing.T) {
	// F-like letters should see a much larger 2-AS path share than B-like
	// ones (Fig 6a's 5%–44% spread).
	g := buildGraph(t)
	rng := rand.New(rand.NewSource(7))
	frac2 := func(spec LetterSpec) float64 {
		d, err := buildLetter(g, spec, rng)
		if err != nil {
			t.Fatal(err)
		}
		direct, total := 0.0, 0.0
		for _, e := range g.Eyeballs() {
			rt, ok := d.Route(e)
			if !ok {
				continue
			}
			w := g.AS(e).UserWeight
			if rt.PathLen == 2 {
				direct += w
			}
			total += w
		}
		return direct / total
	}
	b := frac2(LetterSpec{Letter: "Btest", GlobalSites: 2, TotalSites: 2, Openness: 0.10})
	f := frac2(LetterSpec{Letter: "Ftest", GlobalSites: 94, TotalSites: 94, Openness: 0.52, SharedHostFraction: 0.6})
	if f <= b {
		t.Errorf("F-like 2-AS share %.3f should exceed B-like %.3f", f, b)
	}
	if f < 0.15 || b > 0.35 {
		t.Errorf("2-AS shares out of plausible range: F=%.3f B=%.3f", f, b)
	}
}

func TestNewDeploymentErrors(t *testing.T) {
	g := buildGraph(t)
	if _, err := NewDeployment(g, "empty", nil); err == nil {
		t.Error("empty deployment accepted")
	}
}

// TestDeploymentRouteConcurrent exercises Route and Catchments on one
// shared deployment from many goroutines (run under `go test -race` in
// CI): the resolver's route cache must fill safely under contention and
// every caller must see the routes a serial walk computes.
func TestDeploymentRouteConcurrent(t *testing.T) {
	g := buildGraph(t)
	rng := rand.New(rand.NewSource(8))
	d, err := buildLetter(g, LetterSpec{Letter: "K", GlobalSites: 25, TotalSites: 26, Openness: 0.3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	eyeballs := g.Eyeballs()
	// Serial reference from an identically built deployment on a fresh but
	// identically seeded graph (AddLetterSites adds host ASes, so reusing g
	// would shift ASNs; a twin graph + same rng seed reproduces the sites
	// and routes exactly).
	ref, err := buildLetter(buildGraph(t),
		LetterSpec{Letter: "K", GlobalSites: 25, TotalSites: 26, Openness: 0.3},
		rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[topology.ASN]int, len(eyeballs))
	for _, e := range eyeballs {
		if rt, ok := ref.Route(e); ok {
			want[e] = rt.SiteID
		} else {
			want[e] = -1
		}
	}

	var wg sync.WaitGroup
	for k := 0; k < 12; k++ {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			if off%3 == 0 {
				// Some goroutines first fill the cache through the
				// parallel warm path.
				d.WarmRoutesCtx(context.Background(), eyeballs)
			}
			for i := range eyeballs {
				e := eyeballs[(i+off*37)%len(eyeballs)]
				rt, ok := d.Route(e)
				wantSite := want[e]
				if !ok {
					if wantSite != -1 {
						t.Errorf("AS%d: no route, serial found site %d", e, wantSite)
						return
					}
					continue
				}
				if rt.SiteID != wantSite {
					t.Errorf("AS%d → site %d, serial %d", e, rt.SiteID, wantSite)
					return
				}
			}
		}(k)
	}
	wg.Wait()
}
