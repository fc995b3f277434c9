// Package geo provides the geographic substrate for the anycast studies:
// coordinates, great-circle distances, speed-of-light latency bounds, and
// the world region model used to place users, anycast sites, and probes.
//
// The paper measures "geographic inflation" in milliseconds by scaling
// great-circle distances by the speed of light in fiber (Eq. 1) and lower
// bounds achievable latency by (2/3)·c_f (Eq. 2, following Katz-Bassett et
// al.). The constants and conversions live here so every package agrees on
// them.
package geo

import (
	"fmt"
	"math"
)

const (
	// EarthRadiusKm is the mean Earth radius used for great-circle math.
	EarthRadiusKm = 6371.0

	// FiberKmPerMs is the propagation speed of light in fiber, expressed in
	// kilometers per millisecond (~2/3 of c in vacuum).
	FiberKmPerMs = 200.0

	// BestCaseFraction is the fraction of c_f that real Internet routes
	// rarely beat (Katz-Bassett et al. 2006): achievable speed is at best
	// (2/3)·c_f end to end, due to non-great-circle rights of way.
	BestCaseFraction = 2.0 / 3.0
)

// Coord is a point on the Earth's surface in decimal degrees.
type Coord struct {
	Lat float64 // degrees, [-90, 90]
	Lon float64 // degrees, [-180, 180]
}

// String implements fmt.Stringer.
func (c Coord) String() string {
	return fmt.Sprintf("(%.3f, %.3f)", c.Lat, c.Lon)
}

// degToRad converts degrees to radians.
const degToRad = math.Pi / 180

// DistanceKm returns the great-circle distance between a and b in
// kilometers, computed with the haversine formula. Identical points
// return 0 without trigonometry, which is what the formula gives for them.
func DistanceKm(a, b Coord) float64 {
	if a == b {
		return 0
	}
	return haversine(a, b, math.Cos(a.Lat*degToRad), math.Cos(b.Lat*degToRad))
}

// haversine is DistanceKm for distinct a and b whose latitude cosines
// are cosA and cosB. Point.DistanceKm shares it, so a distance priced
// on prepared points equals DistanceKm's bit for bit.
func haversine(a, b Coord, cosA, cosB float64) float64 {
	dLat := (b.Lat - a.Lat) * degToRad
	dLon := (b.Lon - a.Lon) * degToRad

	sinLat := math.Sin(dLat / 2)
	sinLon := math.Sin(dLon / 2)
	h := sinLat*sinLat + cosA*cosB*sinLon*sinLon
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusKm * math.Asin(math.Sqrt(h))
}

// RTTLowerBoundMs returns the minimum credible round-trip time in
// milliseconds between two points d kilometers apart: the great-circle
// round trip at (2/3)·c_f (Eq. 2's second term).
func RTTLowerBoundMs(distKm float64) float64 {
	return 2 * distKm / (BestCaseFraction * FiberKmPerMs)
}

// GeoRTTMs converts a one-way great-circle distance into the round-trip
// propagation time at full fiber speed, 2·d/c_f. This is the scaling used
// by geographic inflation (Eq. 1): 1000 km ⇒ 10 ms.
func GeoRTTMs(distKm float64) float64 {
	return 2 * distKm / FiberKmPerMs
}

func normalizeLon(lon float64) float64 {
	for lon > 180 {
		lon -= 360
	}
	for lon < -180 {
		lon += 360
	}
	return lon
}

// Jitter displaces c by up to radiusKm kilometers using the two unit
// deviates u, v in [0,1). It keeps results within coordinate bounds, so it
// is safe for generating region spreads around anchor metros.
func Jitter(c Coord, radiusKm float64, u, v float64) Coord {
	// Uniform direction, triangular-ish radial density is fine for spread.
	angle := 2 * math.Pi * u
	dist := radiusKm * math.Sqrt(v)
	dLat := (dist / EarthRadiusKm) * (180 / math.Pi) * math.Cos(angle)
	cosLat := math.Cos(c.Lat * math.Pi / 180)
	if math.Abs(cosLat) < 0.05 {
		cosLat = 0.05 // avoid polar blowup
	}
	dLon := (dist / EarthRadiusKm) * (180 / math.Pi) * math.Sin(angle) / cosLat
	out := Coord{Lat: c.Lat + dLat, Lon: normalizeLon(c.Lon + dLon)}
	if out.Lat > 89 {
		out.Lat = 89
	}
	if out.Lat < -89 {
		out.Lat = -89
	}
	return out
}
