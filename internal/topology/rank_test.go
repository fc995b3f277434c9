package topology_test

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"anycastctx/internal/anycastnet"
	"anycastctx/internal/geo"
	"anycastctx/internal/rng"
	"anycastctx/internal/topology"
)

// refTransitsNear is transitsNear as it ranked before the transit index:
// per region, every transit's nearest presence point from its own index
// (AS.NearestPoint), sorted with CompareDots, ASN ascending on ties.
func refTransitsNear(g *topology.Graph, regions []geo.Region) [][]topology.ASN {
	type cand struct {
		asn topology.ASN
		dot float64
		k   int
	}
	near := make([]geo.Point, len(g.Transits()))
	cands := make([]cand, len(g.Transits()))
	out := make([][]topology.ASN, len(regions))
	for ri, r := range regions {
		center := geo.Prepare(r.Center)
		for k, tn := range g.Transits() {
			near[k] = g.AS(tn).NearestPoint(center)
			cands[k] = cand{tn, center.Dot(near[k]), k}
		}
		slices.SortFunc(cands, func(a, b cand) int {
			if c := center.CompareDots(near[a.k], a.dot, near[b.k], b.dot); c != 0 {
				return c
			}
			return cmp.Compare(a.asn, b.asn)
		})
		asns := make([]topology.ASN, len(cands))
		for i, c := range cands {
			asns[i] = c.asn
		}
		out[ri] = asns
	}
	return out
}

// refNearest3 is the selection NearbyUpstreams made before the transit
// index: the 3 nearest transits, each the first strict minimum by
// Point.Compare among those not yet picked, swapped into place.
func refNearest3(g *topology.Graph, loc geo.Coord) []topology.ASN {
	type cand struct {
		asn topology.ASN
		pt  geo.Point
	}
	q := geo.Prepare(loc)
	cands := make([]cand, len(g.Transits()))
	for i, tn := range g.Transits() {
		cands[i] = cand{tn, g.AS(tn).NearestPoint(q)}
	}
	for i := 0; i < 3 && i < len(cands); i++ {
		min := i
		for j := i + 1; j < len(cands); j++ {
			if q.Compare(cands[j].pt, cands[min].pt) < 0 {
				min = j
			}
		}
		cands[i], cands[min] = cands[min], cands[i]
	}
	var out []topology.ASN
	for i := 0; i < 3 && i < len(cands); i++ {
		out = append(out, cands[i].asn)
	}
	return out
}

// refNearbyUpstreams is NearbyUpstreams before the transit index, given
// refNearest3's picks: it took the first 1 or 2 of them, then drew a
// tier-1.
func refNearbyUpstreams(g *topology.Graph, near []topology.ASN, rng *rand.Rand) []topology.ASN {
	n := min(1+rng.Intn(2), len(near))
	ups := append([]topology.ASN{}, near[:n]...)
	t1s := g.Tier1s()
	return append(ups, t1s[rng.Intn(len(t1s))])
}

// rankCorpus is the fixed query set of the ranking oracle and the seed
// corpus of FuzzTransitRanking: the poles, both sides of the
// antimeridian, region centers, and transit presence points, each of
// which ties with every transit homed in the same region.
func rankCorpus(g *topology.Graph) []geo.Coord {
	qs := []geo.Coord{
		{Lat: 90, Lon: 0}, {Lat: -90, Lon: 0}, {Lat: 89.9, Lon: 45},
		{Lat: 0, Lon: 180}, {Lat: 0, Lon: -180}, {Lat: 12, Lon: 179.9}, {Lat: -33, Lon: -179.9},
		{Lat: 64, Lon: -179.99},
	}
	for _, r := range g.HeaviestRegions()[:10] {
		qs = append(qs, r.Center)
	}
	for _, tn := range g.Transits()[:10] {
		qs = append(qs, g.AS(tn).Presence...)
	}
	return qs
}

// checkRankers compares, at each query, the full ranking transitsNear
// gives a region centered there, NearestTransits' 3 picks, and
// NearbyUpstreams' picks and draws, with the references.
func checkRankers(t *testing.T, g *topology.Graph, label string, qs []geo.Coord) {
	t.Helper()
	regions := make([]geo.Region, len(qs))
	for i, q := range qs {
		regions[i] = geo.Region{Center: q}
	}
	got, want := g.TransitsNear(regions), refTransitsNear(g, regions)
	for i, q := range qs {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("%s, query %v: ranking %v, reference %v", label, q, got[i], want[i])
		}
		near := refNearest3(g, q)
		if got := g.NearestTransits(geo.Prepare(q), 3); !slices.Equal(got, near) {
			t.Fatalf("%s, query %v: NearestTransits = %v, reference %v", label, q, got, near)
		}
		rngGot, rngWant := rng.NewRand(1, rng.PhaseLetters, uint64(i)), rng.NewRand(1, rng.PhaseLetters, uint64(i))
		ups, ref := anycastnet.NearbyUpstreams(g, q, rngGot), refNearbyUpstreams(g, near, rngWant)
		if !slices.Equal(ups, ref) || rngGot.Int63() != rngWant.Int63() {
			t.Fatalf("%s, query %v: NearbyUpstreams = %v, reference %v (or the draws differ)", label, q, ups, ref)
		}
	}
}

// TestTransitRankersMatchReference holds both transit rankers to the
// references over 20 seeds at 20, 75 and 150 transits, the counts the
// scale-0.05, 0.5 and 1 worlds have.
func TestTransitRankersMatchReference(t *testing.T) {
	for _, nt := range []int{20, 75, 150} {
		t.Run(fmt.Sprintf("%d-transits", nt), func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 20; seed++ {
				checkSeed(t, nt, seed)
			}
		})
	}
}

// checkSeed runs checkRankers on the seed's graph with nt transits. The
// queries are every region center, every site location AddLetterSites
// picks for the 2018 and 2020 letters, and the fuzz corpus.
func checkSeed(t *testing.T, nt int, seed int64) {
	label := fmt.Sprintf("%d transits, seed %d", nt, seed)
	regions := geo.GenerateRegions(geo.PaperRegionCounts, rand.New(rand.NewSource(seed)))
	g, err := topology.New(topology.Config{Seed: seed, NumTransit: nt, NumEyeball: 200}, regions)
	if err != nil {
		t.Fatal(err)
	}
	qs := rankCorpus(g)
	for _, r := range regions {
		qs = append(qs, r.Center)
	}
	letterRand := rand.New(rand.NewSource(seed))
	for _, specs := range [][]anycastnet.LetterSpec{anycastnet.Letters2018(), anycastnet.Letters2020()} {
		c := g.Clone()
		for _, spec := range specs {
			sites, err := anycastnet.AddLetterSites(c, spec, letterRand)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range sites {
				qs = append(qs, s.Loc)
			}
		}
	}
	checkRankers(t, g, label, qs)
}

// FuzzTransitRanking compares both transit rankers with the references
// at a fuzzed query point, on graphs with 20, 75 and 150 transits.
func FuzzTransitRanking(f *testing.F) {
	regions := geo.GenerateRegions(geo.PaperRegionCounts, rand.New(rand.NewSource(1)))
	var graphs []*topology.Graph
	for _, nt := range []int{20, 75, 150} {
		g, err := topology.New(topology.Config{Seed: 1, NumTransit: nt, NumEyeball: 200}, regions)
		if err != nil {
			f.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	for _, g := range graphs {
		for _, q := range rankCorpus(g) {
			f.Add(q.Lat, q.Lon)
		}
	}
	f.Fuzz(func(t *testing.T, lat, lon float64) {
		if math.IsNaN(lat) || math.IsInf(lat, 0) || math.IsNaN(lon) || math.IsInf(lon, 0) {
			return
		}
		q := geo.Coord{Lat: max(-90, min(90, lat)), Lon: math.Remainder(lon, 360)}
		for _, g := range graphs {
			checkRankers(t, g, fmt.Sprintf("%d transits", len(g.Transits())), []geo.Coord{q})
		}
	})
}
