package geo

// Index answers nearest-point queries over a fixed set of points. It
// stores each point's latitude cosine and unit vector once; a query
// compares dot products, which order points as great-circle distance
// does (larger dot = closer), and prices only the winner, on the stored
// cosine. Ties go to the first point, as in a strict-< haversine scan. An
// Index is immutable, so it is safe for concurrent use.
type Index struct {
	pts          []Coord
	cos, x, y, z []float64
}

// NewIndex indexes pts without copying them; pts must not be modified
// while the index is in use.
func NewIndex(pts []Coord) *Index {
	n := len(pts)
	idx := &Index{
		pts: pts,
		cos: make([]float64, n),
		x:   make([]float64, n),
		y:   make([]float64, n),
		z:   make([]float64, n),
	}
	for i, c := range pts {
		p := Prepare(c)
		idx.cos[i], idx.x[i], idx.y[i], idx.z[i] = p.cosLat, p.x, p.y, p.z
	}
	return idx
}

// Point returns the indexed point at position i, prepared.
func (idx *Index) Point(i int) Point {
	return Point{Coord: idx.pts[i], cosLat: idx.cos[i], x: idx.x[i], y: idx.y[i], z: idx.z[i]}
}

// Argmax returns the position of the indexed point closest to q and its
// dot product with q, without pricing the distance, or (-1, 0) if the
// set is empty.
func (idx *Index) Argmax(q Point) (int, float64) {
	x := idx.x
	if len(x) == 0 {
		return -1, 0
	}
	y, z := idx.y[:len(x)], idx.z[:len(x)] // one bounds check, not one per point
	best, bestDot := 0, x[0]*q.x+y[0]*q.y+z[0]*q.z
	for i := 1; i < len(x); i++ {
		if dot := x[i]*q.x + y[i]*q.y + z[i]*q.z; dot > bestDot {
			best, bestDot = i, dot
		}
	}
	return best, bestDot
}

// Nearest returns the position of the indexed point closest to q and its
// great-circle distance in km, or (-1, 0) if the set is empty.
func (idx *Index) Nearest(q Point) (int, float64) {
	i := 0
	switch len(idx.pts) {
	case 0:
		return -1, 0
	case 1:
	default:
		i, _ = idx.Argmax(q)
	}
	return i, q.DistanceKm(idx.Point(i))
}
