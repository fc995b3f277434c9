package bgp

import (
	"anycastctx/internal/artifact"
	"anycastctx/internal/geo"
	"anycastctx/internal/topology"
)

// AppendRoute encodes one Route. The encoding is deterministic: floats
// are raw IEEE-754 bits, so decode→encode reproduces the input bytes.
func AppendRoute(w *artifact.Writer, rt Route) {
	w.I32(int32(rt.SiteID))
	w.I32(int32(rt.PathLen))
	w.Bool(rt.Direct)
	w.I32(int32(rt.Via))
	w.U8(uint8(len(rt.Waypoints)))
	for _, p := range rt.Waypoints {
		w.F64(p.Lat)
		w.F64(p.Lon)
	}
}

// ReadRoute decodes one Route written by AppendRoute.
func ReadRoute(r *artifact.Reader) Route {
	rt := Route{
		SiteID:  int(r.I32()),
		PathLen: int(r.I32()),
		Direct:  r.Bool(),
		Via:     topology.ASN(r.I32()),
	}
	n := int(r.U8())
	if n > 0 {
		rt.Waypoints = make([]geo.Coord, n)
		for i := range rt.Waypoints {
			rt.Waypoints[i].Lat = r.F64()
			rt.Waypoints[i].Lon = r.F64()
		}
	}
	return rt
}
