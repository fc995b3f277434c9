package dnssim

import (
	"math"

	"anycastctx/internal/par"
	"anycastctx/internal/rng"
	"anycastctx/internal/users"
)

// Calibration of the analytic per-recursive query-rate model used to
// scale root DNS behavior to the global population (the event-level
// resolver is exact but cannot run billions of queries; the rate model
// reproduces its aggregate behavior per recursive).
const (
	// qpuMin and qpuMax bound each recursive's per-user DNS lookup rate
	// per day.
	qpuMin float64 = 120
	qpuMax float64 = 380
	// missRateMedian is the median root cache miss rate (§4.3: ISI daily
	// rates span 0.1%–2.5% with median 0.5%).
	missRateMedian float64 = 0.005
	// missRateSigma is the lognormal spread of miss rates.
	missRateSigma float64 = 0.8
	// invalidPerUserPerDay is the rate of invalid-TLD queries reaching the
	// roots per user (Chromium probes + leaked suffixes; §2.1 discards 31B
	// of 51.9B daily queries as junk).
	invalidPerUserPerDay float64 = 19
	// ptrPerUserPerDay is the PTR query rate per user (2B/day in DITL).
	ptrPerUserPerDay float64 = 1.2
	// anomalousProb is the chance a recursive is a spammer/buggy volume
	// source; anomalousFactor multiplies its root query rate.
	anomalousProb   float64 = 0.02
	anomalousFactor float64 = 80
	// tcpShare is the fraction of root queries carried over TCP (the
	// latency-measurable subset, §3: 40% of volume had enough TCP).
	tcpShare float64 = 0.06
	// forwarderProb is the chance a recursive is a pure forwarder: visible
	// to the CDN as its users' resolver, but absent from DITL because it
	// forwards upstream instead of querying the roots — one reason the
	// paper's CDN-side overlap stays below 100% (Table 4).
	forwarderProb float64 = 0.12
)

// Rates is the daily query profile of one recursive /24.
type Rates struct {
	Rec *users.Recursive
	// UserQueriesPerDay is the stream arriving from users.
	UserQueriesPerDay float64
	// RootValidPerDay is the daily valid root query volume (cache misses
	// plus redundant re-resolutions).
	RootValidPerDay float64
	// RootInvalidPerDay is junk (NXDomain) volume hitting the roots.
	RootInvalidPerDay float64
	// RootPTRPerDay is PTR volume hitting the roots.
	RootPTRPerDay float64
	// IdealPerDay is the hypothetical once-per-TTL-per-TLD rate (Fig 3's
	// Ideal line: every TLD record refreshed exactly once per 2-day TTL).
	IdealPerDay float64
	// TCPShare is the fraction of this recursive's root queries over TCP.
	TCPShare float64
	// Anomalous marks spammer/buggy-volume recursives.
	Anomalous bool
	// Forwarder marks recursives that never query the roots directly.
	Forwarder bool
}

// RootTotalPerDay returns all root-bound queries per day.
func (r Rates) RootTotalPerDay() float64 {
	return r.RootValidPerDay + r.RootInvalidPerDay + r.RootPTRPerDay
}

// ComputeRates derives a daily rate profile for every recursive in pop.
// Each recursive draws from its own splittable stream keyed by index, so
// the loop runs under par.Do with byte-identical output at any worker
// count.
func ComputeRates(pop *users.Population, zone *Zone, seed int64) []Rates {
	idealPerDay := float64(zone.Len()) / (float64(TLDTTLSeconds) / 86400)
	out := make([]Rates, len(pop.Recursives))
	par.Do(len(pop.Recursives), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			rec := &pop.Recursives[i]
			st := rng.Split(seed, rng.PhaseRates, uint64(i))
			qpu := qpuMin + st.Float64()*(qpuMax-qpuMin)
			userQ := rec.Users * qpu
			missRate := missRateMedian * math.Exp(missRateSigma*st.NormFloat64())
			if missRate > 0.2 {
				missRate = 0.2
			}
			valid := userQ * missRate
			// A recursive never needs fewer root queries than its active TLD
			// set demands, and caching cannot push it below ~the ideal when it
			// has meaningful traffic. The floor never exceeds idealPerDay, so
			// it can bind only below it: checking that first skips the costly
			// ActiveTLDs call wherever the floor cannot bind.
			if valid < idealPerDay {
				if floor := math.Min(zone.ActiveTLDs(userQ)/2, idealPerDay); valid < floor {
					valid = floor
				}
			}
			r := Rates{
				Rec:               rec,
				UserQueriesPerDay: userQ,
				RootValidPerDay:   valid,
				RootInvalidPerDay: rec.Users * invalidPerUserPerDay * (0.5 + st.Float64()),
				RootPTRPerDay:     rec.Users * ptrPerUserPerDay * (0.5 + st.Float64()),
				IdealPerDay:       idealPerDay,
				TCPShare:          tcpShare * (0.5 + st.Float64()),
			}
			// Many resolvers never fall back to TCP at all; this is what limits
			// the paper's latency-inflation coverage to 40% of query volume.
			if st.Float64() < 0.35 {
				r.TCPShare = 0
			}
			if st.Float64() < anomalousProb {
				r.Anomalous = true
				r.RootValidPerDay *= anomalousFactor
				r.RootInvalidPerDay *= anomalousFactor
			}
			if !rec.Public && st.Float64() < forwarderProb {
				r.Forwarder = true
				r.RootValidPerDay = 0
				r.RootInvalidPerDay = 0
				r.RootPTRPerDay = 0
				r.TCPShare = 0
				r.Anomalous = false
			}
			out[i] = r
		}
	})
	return out
}
