package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDistanceKnownPairs(t *testing.T) {
	tests := []struct {
		name string
		a, b Coord
		want float64 // km
		tol  float64
	}{
		{"zero", Coord{0, 0}, Coord{0, 0}, 0, 0.001},
		{"london-newyork", Coord{51.51, -0.13}, Coord{40.71, -74.01}, 5570, 60},
		{"tokyo-sydney", Coord{35.68, 139.69}, Coord{-33.87, 151.21}, 7820, 80},
		{"equator-degree", Coord{0, 0}, Coord{0, 1}, 111.19, 0.5},
		{"antipodal", Coord{0, 0}, Coord{0, 180}, math.Pi * EarthRadiusKm, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := DistanceKm(tt.a, tt.b)
			if math.Abs(got-tt.want) > tt.tol {
				t.Errorf("DistanceKm(%v, %v) = %.1f, want %.1f ± %.1f", tt.a, tt.b, got, tt.want, tt.tol)
			}
		})
	}
}

func TestDistanceProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500}
	sym := func(lat1, lon1, lat2, lon2 float64) bool {
		a := Coord{clampLat(lat1), clampLon(lon1)}
		b := Coord{clampLat(lat2), clampLon(lon2)}
		d1, d2 := DistanceKm(a, b), DistanceKm(b, a)
		return math.Abs(d1-d2) < 1e-6
	}
	if err := quick.Check(sym, cfg); err != nil {
		t.Errorf("distance not symmetric: %v", err)
	}
	nonneg := func(lat1, lon1, lat2, lon2 float64) bool {
		a := Coord{clampLat(lat1), clampLon(lon1)}
		b := Coord{clampLat(lat2), clampLon(lon2)}
		d := DistanceKm(a, b)
		return d >= 0 && d <= math.Pi*EarthRadiusKm+1e-6
	}
	if err := quick.Check(nonneg, cfg); err != nil {
		t.Errorf("distance out of range: %v", err)
	}
	identity := func(lat, lon float64) bool {
		a := Coord{clampLat(lat), clampLon(lon)}
		return DistanceKm(a, a) < 1e-6
	}
	if err := quick.Check(identity, cfg); err != nil {
		t.Errorf("self distance nonzero: %v", err)
	}
}

func TestTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		a := randCoord(rng)
		b := randCoord(rng)
		c := randCoord(rng)
		if DistanceKm(a, c) > DistanceKm(a, b)+DistanceKm(b, c)+1e-6 {
			t.Fatalf("triangle inequality violated: %v %v %v", a, b, c)
		}
	}
}

func TestLatencyConversions(t *testing.T) {
	// 1000 km should be 10 ms of geographic-RTT (Eq. 1 scaling: 2,000 km ⇔ 20 ms).
	if got := GeoRTTMs(1000); math.Abs(got-10) > 1e-9 {
		t.Errorf("GeoRTTMs(1000) = %v, want 10", got)
	}
	// The achievable lower bound is 1.5x the full-fiber-speed RTT (Eq. 2).
	if got, want := RTTLowerBoundMs(1000), 15.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("RTTLowerBoundMs(1000) = %v, want %v", got, want)
	}
	// GeoRTTMs is linear in distance: 2,000 km ⇔ 20 ms at every scale.
	prop := func(km float64) bool {
		km = math.Abs(km)
		if km > 1e6 {
			return true
		}
		return math.Abs(GeoRTTMs(km)-km/100) < 1e-6
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestJitterStaysInBoundsAndNear(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		c := randCoord(rng)
		r := rng.Float64() * 1000
		j := Jitter(c, r, rng.Float64(), rng.Float64())
		if !valid(j) {
			t.Fatalf("Jitter produced invalid coord %v from %v", j, c)
		}
		// Near the poles longitude distances shrink, so allow slack.
		if math.Abs(c.Lat) < 60 {
			if d := DistanceKm(c, j); d > r*1.6+1 {
				t.Fatalf("Jitter moved %f km, radius %f (from %v to %v)", d, r, c, j)
			}
		}
	}
}

func TestGenerateRegionsPaperCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	regions := GenerateRegions(PaperRegionCounts, rng)
	if got, want := len(regions), 508; got != want {
		t.Fatalf("len(regions) = %d, want %d", got, want)
	}
	counts := map[Continent]int{}
	var sum float64
	ids := map[int]bool{}
	for _, r := range regions {
		counts[r.Continent]++
		sum += r.PopWeight
		if r.PopWeight < 0 {
			t.Errorf("region %s has negative weight", r.Name)
		}
		if !valid(r.Center) {
			t.Errorf("region %s has invalid center %v", r.Name, r.Center)
		}
		if ids[r.ID] {
			t.Errorf("duplicate region ID %d", r.ID)
		}
		ids[r.ID] = true
	}
	for c, want := range PaperRegionCounts {
		if counts[c] != want {
			t.Errorf("continent %v has %d regions, want %d", c, counts[c], want)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("population weights sum to %v, want 1", sum)
	}
}

func TestGenerateRegionsDeterministic(t *testing.T) {
	a := GenerateRegions(PaperRegionCounts, rand.New(rand.NewSource(1)))
	b := GenerateRegions(PaperRegionCounts, rand.New(rand.NewSource(1)))
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("region %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestGenerateRegionsSmallCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	regions := GenerateRegions(map[Continent]int{Europe: 3, Asia: 1}, rng)
	if len(regions) != 4 {
		t.Fatalf("len = %d, want 4", len(regions))
	}
}

func TestAnchorsSortedByWeight(t *testing.T) {
	as := Anchors()
	if len(as) == 0 {
		t.Fatal("no anchors")
	}
	for i := 1; i < len(as); i++ {
		if as[i].Weight > as[i-1].Weight {
			t.Fatalf("anchors not sorted at %d: %f > %f", i, as[i].Weight, as[i-1].Weight)
		}
	}
}

func TestContinentString(t *testing.T) {
	if Europe.String() != "Europe" || Oceania.String() != "Oceania" {
		t.Error("continent names wrong")
	}
	if Continent(99).String() != "Continent(99)" {
		t.Errorf("unknown continent string = %q", Continent(99).String())
	}
}

func randCoord(rng *rand.Rand) Coord {
	return Coord{Lat: rng.Float64()*180 - 90, Lon: rng.Float64()*360 - 180}
}

func clampLat(v float64) float64 {
	v = math.Mod(v, 90)
	if math.IsNaN(v) {
		return 0
	}
	return v
}

func clampLon(v float64) float64 {
	v = math.Mod(v, 180)
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// valid reports whether c is within latitude/longitude bounds.
func valid(c Coord) bool {
	return c.Lat >= -90 && c.Lat <= 90 && c.Lon >= -180 && c.Lon <= 180
}
