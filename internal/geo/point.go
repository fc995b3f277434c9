package geo

import (
	"cmp"
	"math"
)

// guard is the half-width, in dot-product units, of the band around a
// decision boundary inside which Within and Compare fall back to the
// haversine. Over 2M random, short-range and near-antipodal pairs, a dot
// product and the cosine of its pair's haversine angle differ by at most
// 1.55e-15, so a dot outside the band decides as comparing DistanceKm
// values would, with ~640× margin. With a guard of 0 the oracle tests
// fail.
const guard = 1e-12

// Point is a Coord prepared for repeated distance work: the cosine of its
// latitude, which the haversine needs, and its unit vector. The dot
// product of two unit vectors is the cosine of the angle between them,
// so a larger dot means a nearer point.
type Point struct {
	Coord
	cosLat  float64
	x, y, z float64
}

// Prepare computes c's latitude cosine and unit vector.
func Prepare(c Coord) Point {
	lat := c.Lat * degToRad
	lon := c.Lon * degToRad
	cosLat := math.Cos(lat)
	return Point{Coord: c, cosLat: cosLat, x: cosLat * math.Cos(lon), y: cosLat * math.Sin(lon), z: math.Sin(lat)}
}

// DistanceKm returns DistanceKm(p.Coord, q.Coord), bit for bit, without
// recomputing either cosine.
func (p Point) DistanceKm(q Point) float64 {
	if p.Coord == q.Coord {
		return 0
	}
	return haversine(p.Coord, q.Coord, p.cosLat, q.cosLat)
}

// Dot returns the dot product of p's and q's unit vectors: the cosine of
// the angle between them, larger for nearer points.
func (p Point) Dot(q Point) float64 {
	return p.x*q.x + p.y*q.y + p.z*q.z
}

// Radius is a distance threshold prepared for Within: the cosine of the
// central angle it spans.
type Radius struct {
	km, cos float64
}

// NewRadius prepares the threshold km.
func NewRadius(km float64) Radius {
	cos := math.Cos(km / EarthRadiusKm)
	switch {
	case km <= 0:
		cos = 2 // no distance is below it
	case km > math.Pi*EarthRadiusKm:
		cos = -2 // every distance is below it
	}
	return Radius{km: km, cos: cos}
}

// Within reports whether DistanceKm(p.Coord, q.Coord) < r. The dot
// product decides unless it lies within the guard band around r, where
// the haversine does.
func (p Point) Within(q Point, r Radius) bool {
	dot := p.Dot(q)
	if math.Abs(dot-r.cos) > guard {
		return dot > r.cos
	}
	return p.DistanceKm(q) < r.km
}

// Compare orders a and b by distance from p: -1 when DistanceKm(p.Coord,
// a.Coord) is the smaller, +1 when it is the larger, 0 when the two are
// equal.
func (p Point) Compare(a, b Point) int {
	return p.CompareDots(a, p.Dot(a), b, p.Dot(b))
}

// CompareDots is Compare for points whose dot products with p, from Dot
// or Index.Argmax, are already known. Dots further apart than
// the guard band decide; closer ones fall back to the two haversines.
func (p Point) CompareDots(a Point, dotA float64, b Point, dotB float64) int {
	if c, ok := compareDots(dotA, dotB); ok {
		return c
	}
	return cmp.Compare(p.DistanceKm(a), p.DistanceKm(b))
}

// compareDots decides which of two points is nearer a query from their
// dot products with it, -1 for the first and 1 for the second, when the
// dots lie further apart than the guard band. Inside the band ok is
// false: only the haversines can decide.
func compareDots(dotA, dotB float64) (c int, ok bool) {
	switch d := dotA - dotB; {
	case d > guard:
		return -1, true
	case d < -guard:
		return 1, true
	}
	return 0, false
}
