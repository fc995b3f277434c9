// Package rng provides splittable, counter-style pseudo-random streams.
//
// The simulator's hot loops (DITL campaign assembly, capture emission,
// Atlas ping sampling, population and zone construction) each draw
// per-entity randomness. With a single shared *rand.Rand those loops are
// forced serial: every draw advances one global sequence, so iteration
// order is load-bearing. A Stream instead derives its state purely from
// (worldSeed, phase, entityID...) with SplitMix64 mixing — the same
// counter-based construction JAX and Philox-family simulators use — so
// entity i's draws are independent of whether entity i-1 ran before,
// after, or concurrently. That makes output bytes a function of the seed
// alone: identical for any worker count and stable across runs.
//
// Stream implements math/rand.Source64, so stdlib distributions
// (rand.New(&s).NormFloat64(), rand.NewZipf(...)) work unchanged; the
// direct helpers (Float64, Intn, NormFloat64, ExpFloat64) cover the hot
// paths without the *rand.Rand allocation.
package rng

import "math"

// Phase namespaces the streams of one pipeline stage away from every
// other stage, so two loops that both key by entity index never see
// correlated draws. Values are stable identifiers, not iota-ordered
// implementation details: adding a phase must not renumber the others,
// or every golden output shifts.
type Phase uint64

const (
	PhaseRegions       Phase = 1  // geo region placement
	PhasePopulation    Phase = 2  // users.Build per-AS recursive placement
	PhasePopServices   Phase = 3  // users.Build public DNS services
	PhaseZone          Phase = 4  // dnssim.NewZone per-TLD delegation shape
	PhaseRates         Phase = 5  // dnssim.ComputeRates per-recursive rates
	PhaseLetters       Phase = 6  // anycastnet letter construction
	PhaseDITLSites     Phase = 7  // ditl.Build secondary-site draws
	PhaseDITLPref      Phase = 8  // ditl.Build letter-preference jitter
	PhaseDITLTCP       Phase = 9  // ditl.Build TCP handshake medians
	PhaseDITLEgress    Phase = 10 // ditl.Build egress IP draws
	PhaseDITLJunk      Phase = 11 // ditl.Build junk-source blocks
	PhaseCaptureJunk   Phase = 12 // EmitSiteCapture junk packets
	PhaseCaptureRec    Phase = 13 // EmitSiteCapture per-recursive packets
	PhaseAffinity      Phase = 14 // Campaign.Affinity per-recursive flaps
	PhaseAtlasDeploy   Phase = 15 // atlas.Deploy probe placement
	PhaseAtlasPing     Phase = 16 // atlas.Ping per-probe samples
	PhaseCDNBuild      Phase = 17 // cdn.Build PoP jitter
	PhaseCDNPeering    Phase = 18 // cdn.Build per-eyeball peering rolls
	PhaseCDNServerLogs Phase = 19 // cdn.ServerSideLogsCtx per-(ring,AS) rows
	PhaseCDNClient     Phase = 20 // cdn.ClientMeasurementsCtx per-(ring,AS) rows
	PhaseCDNCounts     Phase = 21 // users.BuildCDNCounts per-recursive draws
	PhaseAPNIC         Phase = 22 // users.BuildAPNICCounts per-AS noise
	PhaseClientPalette Phase = 23 // dnssim.NewClient TLD palette
	PhaseClientRun     Phase = 24 // dnssim.Client query event loop
	PhaseResolver      Phase = 25 // dnssim resolver/upstream construction
	PhaseMangle        Phase = 26 // faults.Mangler per-record fates
	PhaseWebModel      Phase = 28 // webmodel page-load draws
	PhaseScenario      Phase = 29 // scenario mutations (added-site placement)
	PhaseAblation      Phase = 30 // ablation and growth site placement
)

// gamma is the Weyl-sequence increment from Steele et al.'s SplitMix64:
// 2^64 / phi rounded to odd, chosen so successive states differ in about
// half their bits before mixing.
const gamma = 0x9e3779b97f4a7c15

// mix64 is the SplitMix64 finalizer (Stafford's Mix13 variant): a
// bijective avalanche so that consecutive inputs map to statistically
// independent outputs.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// absorb folds one key word into a derivation state. Both operands pass
// through mix64 before combining, so structured key sets (small phases,
// dense entity indexes) cannot collide by arithmetic coincidence.
func absorb(h, k uint64) uint64 {
	return mix64(h + gamma + mix64(k+gamma))
}

// Stream is a splittable PRNG position: 8 bytes of state, derived not
// seeded. It implements math/rand.Source64. The zero value is a valid
// (if boring) stream; derive real ones with Split.
//
// Draw methods take a pointer receiver because they advance the state;
// Fork takes a value receiver because derivation is pure.
type Stream struct {
	state uint64
}

// Split derives the stream for one entity of one pipeline phase. Equal
// (seed, phase, id) triples always yield the same stream; any difference
// in any component yields an uncorrelated one.
func Split(seed int64, phase Phase, id uint64) Stream {
	h := mix64(uint64(seed) + gamma)
	h = absorb(h, uint64(phase))
	h = absorb(h, id)
	return Stream{state: h}
}

// Fork derives a sub-stream keyed by id without advancing s. Use it to
// extend the entity key — e.g. per ⟨letter, recursive⟩ cells are
// Split(seed, phase, letter).Fork(recursive). Forks of the same stream
// with different ids are uncorrelated with each other and with the
// parent's own draws.
func (s Stream) Fork(id uint64) Stream {
	return Stream{state: absorb(s.state, id)}
}

// Uint64 returns the next 64 random bits: one Weyl step plus the mix64
// avalanche, the SplitMix64 output function.
func (s *Stream) Uint64() uint64 {
	s.state += gamma
	return mix64(s.state)
}

// Uint32 returns the next 32 random bits (the high half of a Uint64
// step, which avalanches best).
func (s *Stream) Uint32() uint32 {
	return uint32(s.Uint64() >> 32)
}

// Int63 implements rand.Source.
func (s *Stream) Int63() int64 {
	return int64(s.Uint64() >> 1)
}

// Seed implements rand.Source. It rebases the stream on seed alone —
// only rand.New internals call this; derived code uses Split.
func (s *Stream) Seed(seed int64) {
	s.state = mix64(uint64(seed) + gamma)
}

// Float64 returns a uniform draw in [0, 1), with the same
// never-returns-1 contract as (*rand.Rand).Float64.
func (s *Stream) Float64() float64 {
	for {
		f := float64(s.Int63()) / (1 << 63)
		if f != 1 {
			return f
		}
	}
}

// Int63n returns a uniform draw in [0, n), using the stdlib's rejection
// construction so small n stays unbiased. It panics if n <= 0.
func (s *Stream) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n with n <= 0")
	}
	if n&(n-1) == 0 { // power of two
		return s.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := s.Int63()
	for v > max {
		v = s.Int63()
	}
	return v % n
}

// Intn returns a uniform draw in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(s.Int63n(int64(n)))
}

// NormFloat64 returns a standard normal draw (Marsaglia polar method).
// The distribution matches (*rand.Rand).NormFloat64; the exact value
// sequence does not, which is fine — every stream-consuming output was
// re-goldened when streams landed.
func (s *Stream) NormFloat64() float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return u * math.Sqrt(-2*math.Log(q)/q)
		}
	}
}

// ExpFloat64 returns an exponential draw with rate 1 (inverse CDF).
func (s *Stream) ExpFloat64() float64 {
	return -math.Log(1 - s.Float64())
}

// HashString folds a string into a stream key — for entities whose
// stable identity is a name (deployment names, ring names) rather than
// a dense index. FNV-1a into the mix64 finalizer.
func HashString(str string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(str); i++ {
		h ^= uint64(str[i])
		h *= 1099511628211
	}
	return mix64(h)
}
