package geo

import "cmp"

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

// GroupArgmax is Argmax for each group of consecutive indexed points, in
// one pass over the points: group k holds positions offs[k] to
// offs[k+1]-1, and best[k] and dots[k] receive the position of its point
// closest to q (the first on ties) and that point's dot product with q,
// or (-1, 0) if the group is empty. offs must be non-decreasing and end
// at most at the number of points; best and dots need len(offs)-1
// entries.
func (idx *Index) GroupArgmax(q Point, offs []int, best []int, dots []float64) {
	x := idx.x
	y, z := idx.y[:len(x)], idx.z[:len(x)]
	best, dots = best[:len(offs)-1], dots[:len(offs)-1]
	i := offs[0]
	for k := range best {
		end := offs[k+1]
		if i == end {
			best[k], dots[k] = -1, 0
			continue
		}
		b, bDot := i, x[i]*q.x+y[i]*q.y+z[i]*q.z
		for i++; i < end; i++ {
			if dot := x[i]*q.x + y[i]*q.y + z[i]*q.z; dot > bDot {
				b, bDot = i, dot
			}
		}
		best[k], dots[k] = b, bDot
	}
}

// CompareDots is Point.CompareDots for the indexed points at positions i
// and j, whose dot products with q are dotI and dotJ: only a pair inside
// the guard band builds the two Points, for the haversines. Sorts call it
// once per comparison, so q comes by pointer.
func (idx *Index) CompareDots(q *Point, i int, dotI float64, j int, dotJ float64) int {
	if c, ok := compareDots(dotI, dotJ); ok {
		return c
	}
	return cmp.Compare(q.DistanceKm(idx.Point(i)), q.DistanceKm(idx.Point(j)))
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
