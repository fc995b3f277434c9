package latency

import (
	"math"
	"testing"

	"anycastctx/internal/bgp"
	"anycastctx/internal/geo"
	"anycastctx/internal/rng"
	"anycastctx/internal/topology"
)

func TestDefaultModelValid(t *testing.T) {
	m := DefaultModel()
	if m.CircuityMin < 1 || m.CircuityMax < m.CircuityMin {
		t.Errorf("circuity range [%v, %v]", m.CircuityMin, m.CircuityMax)
	}
	if m.AccessMinMs < 0 || m.AccessMaxMs < m.AccessMinMs {
		t.Errorf("access delay range [%v, %v]", m.AccessMinMs, m.AccessMaxMs)
	}
	if !(m.HopPenaltyMs >= 0) {
		t.Errorf("hop penalty %v", m.HopPenaltyMs)
	}
	if m.NoiseFrac < 0 || m.NoiseFrac > 1 {
		t.Errorf("noise fraction %v", m.NoiseFrac)
	}
}

func TestBaseRTTMonotoneInDistance(t *testing.T) {
	m := DefaultModel()
	near := bgp.Route{SiteID: 1, PathLen: 3, Waypoints: []geo.Coord{{Lat: 0, Lon: 0}, {Lat: 0, Lon: 1}}}
	far := bgp.Route{SiteID: 1, PathLen: 3, Waypoints: []geo.Coord{{Lat: 0, Lon: 0}, {Lat: 0, Lon: 60}}}
	src := topology.ASN(500)
	if m.BaseRTTMs(src, near) >= m.BaseRTTMs(src, far) {
		t.Error("longer route should have higher RTT")
	}
}

func TestBaseRTTAboveLowerBound(t *testing.T) {
	m := DefaultModel()
	for i := 0; i < 200; i++ {
		src := topology.ASN(i)
		rt := bgp.Route{
			SiteID:    i % 7,
			PathLen:   2 + i%4,
			Waypoints: []geo.Coord{{Lat: 0, Lon: 0}, {Lat: float64(i%80 - 40), Lon: float64(i % 170)}},
		}
		base := m.BaseRTTMs(src, rt)
		lb := geo.RTTLowerBoundMs(rt.Dist())
		if base < lb {
			t.Fatalf("RTT %v below propagation lower bound %v", base, lb)
		}
	}
}

func TestBaseRTTDeterministic(t *testing.T) {
	m := DefaultModel()
	rt := bgp.Route{SiteID: 3, PathLen: 4, Waypoints: []geo.Coord{{Lat: 10, Lon: 10}, {Lat: 20, Lon: 20}}}
	a := m.BaseRTTMs(42, rt)
	b := m.BaseRTTMs(42, rt)
	if a != b {
		t.Error("BaseRTT not deterministic")
	}
	// Different sources should (almost always) differ through access delay
	// and circuity.
	diff := 0
	for i := 0; i < 50; i++ {
		if m.BaseRTTMs(topology.ASN(i), rt) != a {
			diff++
		}
	}
	if diff < 40 {
		t.Errorf("only %d/50 sources had distinct RTTs", diff)
	}
}

func TestCircuityWithinBounds(t *testing.T) {
	m := DefaultModel()
	for i := 0; i < 500; i++ {
		c := m.Circuity(topology.ASN(i), i%50)
		if c < m.CircuityMin || c > m.CircuityMax {
			t.Fatalf("circuity %v out of [%v, %v]", c, m.CircuityMin, m.CircuityMax)
		}
	}
}

func TestAccessDelayWithinBounds(t *testing.T) {
	m := DefaultModel()
	for i := 0; i < 500; i++ {
		d := m.AccessDelayMs(topology.ASN(i))
		if d < m.AccessMinMs || d > m.AccessMaxMs {
			t.Fatalf("access delay %v out of bounds", d)
		}
	}
}

func TestSamplePositiveAndCentered(t *testing.T) {
	m := DefaultModel()
	st := rng.Split(5, rng.PhaseDITLTCP, 0)
	base := 50.0
	var sum float64
	const n = 5000
	for i := 0; i < n; i++ {
		s := m.Sample(&st, base)
		if s <= 0 {
			t.Fatalf("non-positive sample %v", s)
		}
		sum += s
	}
	mean := sum / n
	if mean < base*0.95 || mean > base*1.15 {
		t.Errorf("sample mean %v too far from base %v", mean, base)
	}
}

func TestMedianOfSamplesConverges(t *testing.T) {
	m := DefaultModel()
	st := rng.Split(6, rng.PhaseDITLTCP, 0)
	base := 80.0
	med := m.MedianOfSamples(&st, base, 99)
	if math.Abs(med-base) > base*0.1 {
		t.Errorf("median of 99 samples %v too far from base %v", med, base)
	}
	if got := m.MedianOfSamples(&st, base, 0); got != base {
		t.Errorf("n=0 should return base, got %v", got)
	}
	// Even n path.
	if got := m.MedianOfSamples(&st, base, 10); got <= 0 {
		t.Errorf("even-n median = %v", got)
	}
}

// TestMedianOfSamplesDoesNotAllocate draws the way the DITL assembler
// does: a stream forked per cell and passed by address, which must stay
// on the caller's stack.
func TestMedianOfSamplesDoesNotAllocate(t *testing.T) {
	m := DefaultModel()
	tcp := rng.Split(6, rng.PhaseDITLTCP, 0)
	for _, n := range []int{11, 21} {
		allocs := testing.AllocsPerRun(100, func() {
			cell := tcp.Fork(uint64(n))
			m.MedianOfSamples(&cell, 80, n)
		})
		if allocs != 0 {
			t.Errorf("MedianOfSamples(n=%d) allocates %v times per call, want 0", n, allocs)
		}
	}
}
