package geo

import (
	"cmp"
	"math"
	"math/rand"
	"testing"
)

// destination returns the point km from c along bearing (radians from
// north), by the spherical direct formula. Its rounding puts the result
// within ~1e-12 km of km, on either side: what the oracle wants.
func destination(c Coord, km, bearing float64) Coord {
	lat1, lon1 := c.Lat*degToRad, c.Lon*degToRad
	d := km / EarthRadiusKm
	lat2 := math.Asin(math.Sin(lat1)*math.Cos(d) + math.Cos(lat1)*math.Sin(d)*math.Cos(bearing))
	lon2 := lon1 + math.Atan2(math.Sin(bearing)*math.Sin(d)*math.Cos(lat1), math.Cos(d)-math.Sin(lat1)*math.Sin(lat2))
	return Coord{Lat: lat2 / degToRad, Lon: normalizeLon(lon2 / degToRad)}
}

// antipode returns the point opposite c.
func antipode(c Coord) Coord {
	return Coord{Lat: -c.Lat, Lon: normalizeLon(c.Lon + 180)}
}

// oracleQuery returns the i-th query point of the band oracle: random,
// within 1e-6° of a pole, or within 1e-3° of the antimeridian.
func oracleQuery(i int, rng *rand.Rand) Coord {
	switch i % 4 {
	case 0:
		return Coord{Lat: 90 - rng.Float64()*1e-6, Lon: rng.Float64()*360 - 180}
	case 1:
		return Coord{Lat: rng.Float64()*1e-6 - 90, Lon: rng.Float64()*360 - 180}
	case 2:
		lon := 180 - rng.Float64()*1e-3
		if i%8 == 2 {
			lon = -lon
		}
		return Coord{Lat: rng.Float64()*160 - 80, Lon: lon}
	}
	return randCoord(rng)
}

// oracleRadiiKm are the thresholds the callers test (peering bands,
// site spacing) plus one beyond a quarter great circle (~10,008 km),
// where the dot products are negative.
var oracleRadiiKm = []float64{500, 1000, 1500, 3000, 12000}

// oracleOffsetsKm straddle each threshold by ±1 m and ±1e-12 km.
var oracleOffsetsKm = []float64{-1e-3, -1e-12, 0, 1e-12, 1e-3}

func TestPreparedDistanceBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 20000; i++ {
		a, b := oracleQuery(i, rng), randCoord(rng)
		switch i % 5 {
		case 1:
			b = a
		case 2:
			b = destination(a, rng.Float64()*1e-3, rng.Float64()*2*math.Pi)
		case 3:
			b = destination(antipode(a), rng.Float64()*1e-3, rng.Float64()*2*math.Pi)
		}
		want := DistanceKm(a, b)
		if got := Prepare(a).DistanceKm(Prepare(b)); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Prepare(%v).DistanceKm(Prepare(%v)) = %v, DistanceKm = %v", a, b, got, want)
		}
	}
}

// checkWithin fails t unless Within decides d(a, b) < km as the
// haversine does.
func checkWithin(t *testing.T, a, b Coord, km float64) {
	t.Helper()
	want := DistanceKm(a, b) < km
	if got := Prepare(a).Within(Prepare(b), NewRadius(km)); got != want {
		t.Fatalf("Within(%v, %v, %v km) = %v; DistanceKm = %.17g", a, b, km, got, DistanceKm(a, b))
	}
}

// checkCompare fails t unless Compare orders a and b by distance from q
// as comparing the two haversines does.
func checkCompare(t *testing.T, q, a, b Coord) {
	t.Helper()
	want := cmp.Compare(DistanceKm(q, a), DistanceKm(q, b))
	if got := Prepare(q).Compare(Prepare(a), Prepare(b)); got != want {
		t.Fatalf("Compare from %v: (%v, %v) = %d; distances %.17g, %.17g", q, a, b, got, DistanceKm(q, a), DistanceKm(q, b))
	}
}

// TestWithinMatchesHaversine is the band oracle: points ±1 m and
// ±1e-12 km around each threshold, and thresholds at a pair's own
// distance and one ulp either side, which only the haversine fallback
// decides correctly.
func TestWithinMatchesHaversine(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := 0
	for i := 0; i < 1500; i++ {
		a := oracleQuery(i, rng)
		for _, km := range oracleRadiiKm {
			for _, off := range oracleOffsetsKm {
				b := destination(a, km+off, rng.Float64()*2*math.Pi)
				d := DistanceKm(a, b)
				checkWithin(t, a, b, km)
				checkWithin(t, a, b, d)
				checkWithin(t, a, b, math.Nextafter(d, 0))
				checkWithin(t, a, b, math.Nextafter(d, math.Inf(1)))
				cases += 4
			}
		}
		// Near-antipodal pairs, where the haversine is ill-conditioned.
		anti := antipode(a)
		for _, b := range []Coord{anti, destination(anti, 1e-3, rng.Float64()*2*math.Pi), destination(anti, 5, rng.Float64()*2*math.Pi)} {
			d := DistanceKm(a, b)
			for _, km := range []float64{d, math.Nextafter(d, 0), math.Nextafter(d, math.Inf(1)), 20000, math.Pi * EarthRadiusKm, 1e9, 0, -1} {
				checkWithin(t, a, b, km)
				cases++
			}
		}
		// A point against itself: 0 km is below any positive radius.
		checkWithin(t, a, a, 1e-9)
		checkWithin(t, a, a, 0)
		cases += 2
	}
	if cases < 100000 {
		t.Fatalf("only %d cases checked", cases)
	}
}

// TestCompareMatchesHaversine is the ordering oracle: pairs at distances
// within ±1 m and ±1e-12 km of each other, exact ties, duplicates and
// near-antipodal pairs.
func TestCompareMatchesHaversine(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := 0
	for i := 0; i < 1500; i++ {
		q := oracleQuery(i, rng)
		for _, km := range oracleRadiiKm {
			a := destination(q, km, rng.Float64()*2*math.Pi)
			for _, off := range oracleOffsetsKm {
				b := destination(q, km+off, rng.Float64()*2*math.Pi)
				checkCompare(t, q, a, b)
				checkCompare(t, q, b, a)
				cases += 2
			}
			checkCompare(t, q, a, a)
			cases++
		}
		anti := antipode(q)
		a := destination(anti, 1e-3, rng.Float64()*2*math.Pi)
		b := destination(anti, 1e-3+1e-12, rng.Float64()*2*math.Pi)
		checkCompare(t, q, a, b)
		checkCompare(t, q, anti, a)
		cases += 2
	}
	// Exact ties: mirror images across the query's meridian or, for a
	// query on the equator, across the equator.
	for i := 0; i < 5000; i++ {
		lat, dLon := rng.Float64()*160-80, rng.Float64()*20
		q := Coord{Lat: rng.Float64()*160 - 80, Lon: 0}
		checkCompare(t, q, Coord{Lat: lat, Lon: dLon}, Coord{Lat: lat, Lon: -dLon})
		q = Coord{Lat: 0, Lon: rng.Float64()*300 - 150}
		checkCompare(t, q, Coord{Lat: lat, Lon: q.Lon + dLon}, Coord{Lat: -lat, Lon: q.Lon + dLon})
		cases += 2
	}
	if cases < 40000 {
		t.Fatalf("only %d cases checked", cases)
	}
}

// FuzzCompare checks Compare, and Within at the radius Compare's second
// point sets, against the haversine. The second point sits within
// ±1 m of the first's distance from the query, so the fuzzer lives near
// the guard band.
func FuzzCompare(f *testing.F) {
	f.Add(51.5, -0.13, 40.7, -74.0, 1.0, 1e-12)
	f.Add(89.9999999, 10.0, 0.0, 179.9999, 3.0, -1e-12)
	f.Add(0.0, 0.0, 0.0, 180.0, 0.5, 1e-4)
	f.Add(-33.9, 151.2, 35.7, 139.7, 2.0, 0.0)
	f.Fuzz(func(t *testing.T, qLat, qLon, aLat, aLon, bearing, nudgeKm float64) {
		if math.IsNaN(bearing) || math.IsInf(bearing, 0) || math.IsNaN(nudgeKm) || math.IsInf(nudgeKm, 0) {
			return
		}
		q := Coord{Lat: clampLat(qLat), Lon: clampLon(qLon)}
		a := Coord{Lat: clampLat(aLat), Lon: clampLon(aLon)}
		b := destination(q, DistanceKm(q, a)+math.Mod(nudgeKm, 1e-3), math.Mod(bearing, 2*math.Pi))
		checkCompare(t, q, a, b)
		checkWithin(t, q, a, DistanceKm(q, b))
	})
}
