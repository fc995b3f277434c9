package geo

import (
	"fmt"
	"math/rand"
	"sort"
)

// Continent identifies one of the seven continents used to bucket regions,
// mirroring the paper's region inventory (§2.2).
type Continent uint8

// Continents in the order the paper lists them.
const (
	Europe Continent = iota
	Africa
	Asia
	Antarctica
	NorthAmerica
	SouthAmerica
	Oceania
	numContinents
)

// String implements fmt.Stringer.
func (c Continent) String() string {
	switch c {
	case Europe:
		return "Europe"
	case Africa:
		return "Africa"
	case Asia:
		return "Asia"
	case Antarctica:
		return "Antarctica"
	case NorthAmerica:
		return "North America"
	case SouthAmerica:
		return "South America"
	case Oceania:
		return "Oceania"
	default:
		return fmt.Sprintf("Continent(%d)", uint8(c))
	}
}

// PaperRegionCounts is the number of regions per continent reported in
// §2.2: 508 total.
var PaperRegionCounts = map[Continent]int{
	Europe:       135,
	Africa:       62,
	Asia:         102,
	Antarctica:   2,
	NorthAmerica: 137,
	SouthAmerica: 41,
	Oceania:      29,
}

// Region is a metropolitan-scale geographic area that generates similar
// amounts of traffic — the paper's unit of user aggregation.
type Region struct {
	ID        int
	Name      string
	Continent Continent
	Center    Coord
	// PopWeight is the region's share of the world's Internet users,
	// normalized so that all regions sum to 1.
	PopWeight float64
}

// anchor is a seed metropolitan area around which synthetic regions are
// scattered. Weights are rough relative Internet-population weights; they
// only need to concentrate users where real users are concentrated, so the
// "sites near users" effects (Fig 1, Fig 7b) have something to bite on.
type anchor struct {
	name      string
	continent Continent
	coord     Coord
	weight    float64
}

var anchors = []anchor{
	// Europe
	{"London", Europe, Coord{51.51, -0.13}, 9},
	{"Paris", Europe, Coord{48.86, 2.35}, 8},
	{"Frankfurt", Europe, Coord{50.11, 8.68}, 8},
	{"Amsterdam", Europe, Coord{52.37, 4.90}, 6},
	{"Madrid", Europe, Coord{40.42, -3.70}, 6},
	{"Milan", Europe, Coord{45.46, 9.19}, 6},
	{"Warsaw", Europe, Coord{52.23, 21.01}, 5},
	{"Stockholm", Europe, Coord{59.33, 18.07}, 4},
	{"Moscow", Europe, Coord{55.76, 37.62}, 8},
	{"Istanbul", Europe, Coord{41.01, 28.98}, 7},
	{"Kyiv", Europe, Coord{50.45, 30.52}, 4},
	{"Lisbon", Europe, Coord{38.72, -9.14}, 3},
	// Africa
	{"Lagos", Africa, Coord{6.52, 3.38}, 7},
	{"Cairo", Africa, Coord{30.04, 31.24}, 6},
	{"Johannesburg", Africa, Coord{-26.20, 28.05}, 5},
	{"Nairobi", Africa, Coord{-1.29, 36.82}, 4},
	{"Casablanca", Africa, Coord{33.57, -7.59}, 3},
	{"Accra", Africa, Coord{5.60, -0.19}, 2},
	{"Addis Ababa", Africa, Coord{9.03, 38.74}, 2},
	// Asia
	{"Tokyo", Asia, Coord{35.68, 139.69}, 10},
	{"Seoul", Asia, Coord{37.57, 126.98}, 7},
	{"Beijing", Asia, Coord{39.90, 116.41}, 10},
	{"Shanghai", Asia, Coord{31.23, 121.47}, 9},
	{"Mumbai", Asia, Coord{19.08, 72.88}, 10},
	{"Delhi", Asia, Coord{28.70, 77.10}, 9},
	{"Chennai", Asia, Coord{13.08, 80.27}, 5},
	{"Singapore", Asia, Coord{1.35, 103.82}, 6},
	{"Jakarta", Asia, Coord{-6.21, 106.85}, 7},
	{"Manila", Asia, Coord{14.60, 120.98}, 4},
	{"Bangkok", Asia, Coord{13.76, 100.50}, 4},
	{"Hong Kong", Asia, Coord{22.32, 114.17}, 5},
	{"Dubai", Asia, Coord{25.20, 55.27}, 4},
	{"Tel Aviv", Asia, Coord{32.09, 34.78}, 2},
	{"Karachi", Asia, Coord{24.86, 67.00}, 4},
	// Antarctica (research stations; negligible population)
	{"McMurdo", Antarctica, Coord{-77.85, 166.67}, 0.01},
	{"Rothera", Antarctica, Coord{-67.57, -68.13}, 0.01},
	// North America
	{"New York", NorthAmerica, Coord{40.71, -74.01}, 10},
	{"Los Angeles", NorthAmerica, Coord{34.05, -118.24}, 8},
	{"Chicago", NorthAmerica, Coord{41.88, -87.63}, 6},
	{"Dallas", NorthAmerica, Coord{32.78, -96.80}, 5},
	{"Seattle", NorthAmerica, Coord{47.61, -122.33}, 4},
	{"Miami", NorthAmerica, Coord{25.76, -80.19}, 4},
	{"Toronto", NorthAmerica, Coord{43.65, -79.38}, 4},
	{"Mexico City", NorthAmerica, Coord{19.43, -99.13}, 7},
	{"Ashburn", NorthAmerica, Coord{39.04, -77.49}, 5},
	{"Denver", NorthAmerica, Coord{39.74, -104.99}, 3},
	{"Atlanta", NorthAmerica, Coord{33.75, -84.39}, 4},
	// South America
	{"Sao Paulo", SouthAmerica, Coord{-23.55, -46.63}, 8},
	{"Rio de Janeiro", SouthAmerica, Coord{-22.91, -43.17}, 4},
	{"Buenos Aires", SouthAmerica, Coord{-34.60, -58.38}, 5},
	{"Bogota", SouthAmerica, Coord{4.71, -74.07}, 4},
	{"Santiago", SouthAmerica, Coord{-33.45, -70.67}, 3},
	{"Lima", SouthAmerica, Coord{-12.05, -77.04}, 3},
	// Oceania
	{"Sydney", Oceania, Coord{-33.87, 151.21}, 4},
	{"Melbourne", Oceania, Coord{-37.81, 144.96}, 3},
	{"Auckland", Oceania, Coord{-36.85, 174.76}, 2},
	{"Perth", Oceania, Coord{-31.95, 115.86}, 1},
}

// Anchors returns the seed metropolitan areas, largest weight first. The
// slice is a copy; callers may reorder it freely.
func Anchors() []struct {
	Name      string
	Continent Continent
	Coord     Coord
	Weight    float64
} {
	out := make([]struct {
		Name      string
		Continent Continent
		Coord     Coord
		Weight    float64
	}, len(anchors))
	for i, a := range anchors {
		out[i].Name = a.name
		out[i].Continent = a.continent
		out[i].Coord = a.coord
		out[i].Weight = a.weight
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Weight > out[j].Weight })
	return out
}

// GenerateRegions builds a deterministic synthetic region set. Counts gives
// regions per continent (use PaperRegionCounts for the paper's 508); rng
// drives placement jitter and population spread. Regions within a continent
// are scattered around that continent's anchors, weighted so big metros own
// more regions and more users, approximating the user-concentration map in
// Fig 1.
func GenerateRegions(counts map[Continent]int, rng *rand.Rand) []Region {
	var regions []Region
	id := 0
	for c := Continent(0); c < numContinents; c++ {
		n := counts[c]
		if n == 0 {
			continue
		}
		var local []anchor
		var totalW float64
		for _, a := range anchors {
			if a.continent == c {
				local = append(local, a)
				totalW += a.weight
			}
		}
		if len(local) == 0 {
			continue
		}
		// Distribute n regions over anchors proportionally to weight,
		// guaranteeing each anchor at least one region when n allows.
		alloc := allocateProportionally(n, local, totalW)
		for ai, a := range local {
			for k := 0; k < alloc[ai]; k++ {
				var center Coord
				var name string
				if k == 0 {
					center = a.coord
					name = a.name
				} else {
					// Scatter satellite regions up to ~700 km out.
					center = Jitter(a.coord, 700, rng.Float64(), rng.Float64())
					name = fmt.Sprintf("%s-%d", a.name, k)
				}
				// Population decays across satellites of a metro; small
				// lognormal noise keeps ranks from being perfectly tied.
				w := a.weight / float64(k+1)
				w *= 0.5 + rng.Float64()
				regions = append(regions, Region{
					ID:        id,
					Name:      name,
					Continent: c,
					Center:    center,
					PopWeight: w,
				})
				id++
			}
		}
	}
	// Normalize population weights.
	var sum float64
	for _, r := range regions {
		sum += r.PopWeight
	}
	for i := range regions {
		regions[i].PopWeight /= sum
	}
	return regions
}

// allocateProportionally splits n slots over the local anchors by weight,
// using largest-remainder so the allocation sums exactly to n.
func allocateProportionally(n int, local []anchor, totalW float64) []int {
	alloc := make([]int, len(local))
	type rem struct {
		i    int
		frac float64
	}
	rems := make([]rem, len(local))
	used := 0
	for i, a := range local {
		exact := float64(n) * a.weight / totalW
		alloc[i] = int(exact)
		rems[i] = rem{i, exact - float64(alloc[i])}
		used += alloc[i]
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	for k := 0; used < n; k++ {
		alloc[rems[k%len(rems)].i]++
		used++
	}
	return alloc
}
