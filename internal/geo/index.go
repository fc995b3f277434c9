package geo

import "math"

// Index answers nearest-point queries over a fixed set of points. It
// stores each point's unit vector once; a query compares dot products,
// which order points exactly as great-circle distance does (larger dot =
// closer), and prices only the winner with DistanceKm. Ties go to the
// first point, as in a strict-< haversine scan. An Index is immutable, so
// it is safe for concurrent use.
type Index struct {
	pts     []Coord
	x, y, z []float64
}

// NewIndex indexes pts without copying them; pts must not be modified
// while the index is in use.
func NewIndex(pts []Coord) *Index {
	n := len(pts)
	idx := &Index{
		pts: pts,
		x:   make([]float64, n),
		y:   make([]float64, n),
		z:   make([]float64, n),
	}
	for i, p := range pts {
		idx.x[i], idx.y[i], idx.z[i] = unitVec(p)
	}
	return idx
}

// Nearest returns the position in the indexed set of the point closest
// to c and its great-circle distance in km, or (-1, 0) if the set is
// empty.
func (idx *Index) Nearest(c Coord) (int, float64) {
	switch len(idx.pts) {
	case 0:
		return -1, 0
	case 1:
		return 0, DistanceKm(c, idx.pts[0])
	}
	cx, cy, cz := unitVec(c)
	best, bestDot := 0, idx.x[0]*cx+idx.y[0]*cy+idx.z[0]*cz
	for i := 1; i < len(idx.pts); i++ {
		if dot := idx.x[i]*cx + idx.y[i]*cy + idx.z[i]*cz; dot > bestDot {
			best, bestDot = i, dot
		}
	}
	return best, DistanceKm(c, idx.pts[best])
}

// unitVec returns c's unit vector on the sphere.
func unitVec(c Coord) (x, y, z float64) {
	const degToRad = math.Pi / 180
	lat := c.Lat * degToRad
	lon := c.Lon * degToRad
	cosLat := math.Cos(lat)
	return cosLat * math.Cos(lon), cosLat * math.Sin(lon), math.Sin(lat)
}
