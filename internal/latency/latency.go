// Package latency turns routes into round-trip times. The model is
// propagation-dominated: the waypoint path length at best-case fiber speed,
// a circuity factor for non-great-circle rights of way, a per-AS-hop
// processing penalty, and a small last-mile access delay. Measurement
// functions add sampling noise on top, so "median of n samples" behaves
// like the paper's TCP-handshake RTT estimates (§3).
package latency

import (
	"anycastctx/internal/bgp"
	"anycastctx/internal/geo"
	"anycastctx/internal/rng"
	"anycastctx/internal/topology"
)

// Model computes deterministic base RTTs for routes. The zero value is not
// useful; use DefaultModel or fill all fields.
type Model struct {
	// HopPenaltyMs is added once per AS-level hop beyond the first
	// (router/queueing/handoff cost).
	HopPenaltyMs float64
	// CircuityMin/Max bound the per-path multiplier applied to great-circle
	// distance (fiber does not follow great circles).
	CircuityMin, CircuityMax float64
	// AccessMinMs/AccessMaxMs bound the per-source last-mile delay.
	AccessMinMs, AccessMaxMs float64
	// NoiseFrac scales multiplicative per-sample measurement noise.
	NoiseFrac float64
	// Salt decorrelates the deterministic per-pair deviates.
	Salt uint64
}

// DefaultModel returns the calibrated model used by the studies.
func DefaultModel() *Model {
	return &Model{
		HopPenaltyMs: 1.5,
		CircuityMin:  1.05,
		CircuityMax:  1.35,
		AccessMinMs:  0.5,
		AccessMaxMs:  6.0,
		NoiseFrac:    0.08,
		Salt:         0xabcdef12,
	}
}

// unit returns a deterministic uniform [0,1) deviate for the pair (a, b).
func (m *Model) unit(a, b uint64) float64 {
	h := m.Salt
	h ^= a * 0xff51afd7ed558ccd
	h = (h << 29) | (h >> 35)
	h ^= b * 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 31
	return float64(h%1_000_000) / 1_000_000
}

// Circuity returns the deterministic circuity multiplier for traffic from
// src to the given site.
func (m *Model) Circuity(src topology.ASN, siteID int) float64 {
	u := m.unit(uint64(uint32(src)), uint64(uint32(siteID))+0x51)
	return m.CircuityMin + u*(m.CircuityMax-m.CircuityMin)
}

// AccessDelayMs returns the deterministic last-mile delay of a source AS.
func (m *Model) AccessDelayMs(src topology.ASN) float64 {
	u := m.unit(uint64(uint32(src)), 0x99)
	return m.AccessMinMs + u*(m.AccessMaxMs-m.AccessMinMs)
}

// BaseRTTMs returns the deterministic round-trip time for src using route
// rt: propagation over the waypoint path at best-case speed, scaled by
// circuity, plus hop penalties and access delay.
func (m *Model) BaseRTTMs(src topology.ASN, rt bgp.Route) float64 {
	dist := rt.Dist() * m.Circuity(src, rt.SiteID)
	hops := float64(rt.PathLen - 1)
	return geo.RTTLowerBoundMs(dist) + m.HopPenaltyMs*hops + m.AccessDelayMs(src)
}

// Sample draws one noisy measurement around base from st, the caller's
// per-entity stream: multiplicative lognormal-ish noise plus occasional
// queueing spikes.
func (m *Model) Sample(st *rng.Stream, base float64) float64 {
	noise := 1 + m.NoiseFrac*st.NormFloat64()
	if noise < 0.7 {
		noise = 0.7
	}
	v := base * noise
	// Rare tail spikes: transient queueing.
	if st.Float64() < 0.02 {
		v += st.ExpFloat64() * 20
	}
	if v < 0.05 {
		v = 0.05
	}
	return v
}

// MedianOfSamples draws n samples from st and returns their median — how
// the paper estimates per-⟨root, resolver, site⟩ latency from TCP
// handshakes.
func (m *Model) MedianOfSamples(st *rng.Stream, base float64, n int) float64 {
	if n <= 0 {
		return base
	}
	// Up to 32 samples (callers draw 11 or 21) fit a stack buffer, so
	// the call does not allocate.
	var buf [32]float64
	var samples []float64
	if n <= len(buf) {
		samples = buf[:n]
	} else {
		samples = make([]float64, n)
	}
	for i := range samples {
		samples[i] = m.Sample(st, base)
	}
	// Insertion sort: n is small.
	for i := 1; i < len(samples); i++ {
		for j := i; j > 0 && samples[j] < samples[j-1]; j-- {
			samples[j], samples[j-1] = samples[j-1], samples[j]
		}
	}
	if n%2 == 1 {
		return samples[n/2]
	}
	return (samples[n/2-1] + samples[n/2]) / 2
}
