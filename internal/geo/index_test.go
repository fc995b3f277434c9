package geo

import (
	"math"
	"math/rand"
	"testing"
)

// scanNearest is the reference Index must match: a plain haversine scan
// where a point replaces the best only when strictly closer, so the first
// of equally distant points wins.
func scanNearest(pts []Coord, c Coord) (int, float64) {
	best, bestD := -1, 0.0
	for i, p := range pts {
		if d := DistanceKm(c, p); best == -1 || d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}

func TestIndexMatchesHaversineScan(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	special := []Coord{
		{Lat: 90, Lon: 0}, {Lat: -90, Lon: 0}, // poles
		{Lat: 12, Lon: 179.6}, {Lat: -33, Lon: -179.7}, // both sides of the antimeridian
		{Lat: 0, Lon: 180}, {Lat: 64, Lon: -179.95},
	}
	const queriesPerSet = 2500
	total := 0
	for _, n := range []int{0, 1, 2, 5, 300} {
		pts := make([]Coord, n)
		for i := range pts {
			pts[i] = randCoord(rng)
		}
		for i := 0; i < n && i < len(special) && n > 2; i++ {
			pts[i*n/len(special)] = special[i]
		}
		// Exact duplicates: the earlier copy must win.
		if n >= 2 {
			pts[n-1] = pts[n/2]
		}
		if n == 300 {
			for i := 200; i < 230; i++ {
				pts[i] = pts[i-200]
			}
		}
		idx := NewIndex(pts)
		for q := 0; q < queriesPerSet; q++ {
			var c Coord
			switch {
			case n > 0 && q%5 == 0:
				c = pts[rng.Intn(n)] // a query equal to one of the points
			case q%5 == 1:
				c = Coord{Lat: 89 + rng.Float64(), Lon: rng.Float64()*360 - 180}
			case q%5 == 2:
				c = Coord{Lat: rng.Float64()*180 - 90, Lon: 179.5 + rng.Float64()*0.5}
				if q%2 == 0 {
					c.Lon = -c.Lon
				}
			default:
				c = randCoord(rng)
			}
			q := Prepare(c)
			gotI, gotD := idx.Nearest(q)
			wantI, wantD := scanNearest(pts, c)
			if gotI != wantI || math.Abs(gotD-wantD) > 1e-9 {
				t.Fatalf("n=%d query %v: Nearest = (%d, %v), scan = (%d, %v)", n, c, gotI, gotD, wantI, wantD)
			}
			// The distance is priced on the stored cosine, so it equals
			// DistanceKm bit for bit; Argmax names the same point
			// without pricing it, with the dot the point's own gives.
			if n > 0 {
				if d := DistanceKm(c, pts[gotI]); gotD != d {
					t.Fatalf("n=%d query %v: Nearest distance %v, DistanceKm %v", n, c, gotD, d)
				}
				p := idx.Point(gotI)
				if ai, dot := idx.Argmax(q); ai != gotI || dot != q.Dot(p) || p != Prepare(pts[gotI]) {
					t.Fatalf("n=%d query %v: Argmax = (%d, %v), Nearest = %d with dot %v", n, c, ai, dot, gotI, q.Dot(p))
				}
			} else if ai, _ := idx.Argmax(q); ai != -1 {
				t.Fatalf("empty index: Argmax = %d", ai)
			}
			total++
		}
	}
	if total < 10000 {
		t.Fatalf("only %d queries checked", total)
	}
}

// TestGroupArgmaxMatchesArgmax holds GroupArgmax to Argmax over each
// group's own index: the same winner, first of duplicates included, and
// the same dot product bit for bit. Groups run from empty to 9 points and
// hold exact duplicates, within and across groups, the poles and both
// sides of the antimeridian; queries include the points themselves.
func TestGroupArgmaxMatchesArgmax(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	special := []Coord{
		{Lat: 90, Lon: 0}, {Lat: -90, Lon: 0},
		{Lat: 12, Lon: 179.6}, {Lat: -33, Lon: -179.7}, {Lat: 0, Lon: 180},
	}
	checked := 0
	for set := 0; set < 50; set++ {
		var pts []Coord
		offs := []int{0}
		for g := 1 + rng.Intn(30); g > 0; g-- {
			for i := rng.Intn(10); i > 0; i-- {
				switch c := rng.Intn(8); {
				case c == 0 && len(pts) > 0:
					pts = append(pts, pts[rng.Intn(len(pts))]) // a duplicate, maybe in this group
				case c == 1:
					pts = append(pts, special[rng.Intn(len(special))])
				default:
					pts = append(pts, randCoord(rng))
				}
			}
			offs = append(offs, len(pts))
		}
		idx := NewIndex(pts)
		best, dots := make([]int, len(offs)-1), make([]float64, len(offs)-1)
		for q := 0; q < 200; q++ {
			c := randCoord(rng)
			if q%3 == 0 && len(pts) > 0 {
				c = pts[rng.Intn(len(pts))]
			}
			qp := Prepare(c)
			idx.GroupArgmax(qp, offs, best, dots)
			for k := range best {
				lo, hi := offs[k], offs[k+1]
				wantI, wantDot := NewIndex(pts[lo:hi]).Argmax(qp)
				if wantI >= 0 {
					wantI += lo
				}
				if best[k] != wantI || math.Float64bits(dots[k]) != math.Float64bits(wantDot) {
					t.Fatalf("set %d group %d [%d,%d) query %v: GroupArgmax = (%d, %v), Argmax = (%d, %v)",
						set, k, lo, hi, c, best[k], dots[k], wantI, wantDot)
				}
				if wantI >= 0 && math.Float64bits(dots[k]) != math.Float64bits(qp.Dot(idx.Point(wantI))) {
					t.Fatalf("set %d group %d: dot %v, Point.Dot %v", set, k, dots[k], qp.Dot(idx.Point(wantI)))
				}
				checked++
			}
		}
	}
	if checked < 50000 {
		t.Fatalf("only %d groups checked", checked)
	}
}

// TestIndexCompareDotsMatchesPoint holds Index.CompareDots to
// Point.CompareDots on the same two points, over random pairs, exact
// duplicates and pairs equally far from the query.
func TestIndexCompareDotsMatchesPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for n := 0; n < 5000; n++ {
		q := Prepare(Coord{Lat: rng.Float64()*160 - 80, Lon: rng.Float64()*300 - 150})
		lat, dLon := rng.Float64()*160-80, rng.Float64()*20
		a := randCoord(rng)
		pts := []Coord{a, a, randCoord(rng), {Lat: lat, Lon: q.Lon + dLon}, {Lat: lat, Lon: q.Lon - dLon}}
		idx := NewIndex(pts)
		for i := range pts {
			for j := range pts {
				pi, pj := idx.Point(i), idx.Point(j)
				got := idx.CompareDots(&q, i, q.Dot(pi), j, q.Dot(pj))
				if want := q.CompareDots(pi, q.Dot(pi), pj, q.Dot(pj)); got != want {
					t.Fatalf("query %v, %v vs %v: Index.CompareDots %d, Point.CompareDots %d", q.Coord, pts[i], pts[j], got, want)
				}
			}
		}
	}
}
