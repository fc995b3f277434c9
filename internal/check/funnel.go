package check

import (
	"context"
	"math"

	"anycastctx/internal/ditl"
	"anycastctx/internal/world"
)

// FunnelConservation asserts the §2.1 pre-processing funnel is
// conservative: every query is in exactly one bucket, so
// raw = invalid + PTR + valid and valid = private + v6 + retained, with
// every component finite and non-negative. It recomputes the funnel from
// the per-recursive rates (the ground truth Preprocess folds) and
// cross-checks Campaign.Preprocess against that oracle.
type FunnelConservation struct{}

// Name implements Checker.
func (FunnelConservation) Name() string { return "funnel-conservation" }

// Check implements Checker.
func (FunnelConservation) Check(_ context.Context, w *world.World) []Violation {
	r := &reporter{name: FunnelConservation{}.Name()}
	c := w.Campaign()

	if len(w.Rates()) != c.NumRecursives() {
		r.addf("world has %d rates for %d campaign recursives", len(w.Rates()), c.NumRecursives())
		return r.violations()
	}

	// Oracle fold, in the same index order Preprocess uses so agreement
	// is insensitive only to genuine value changes, not summation order.
	var valid, invalid, ptr float64
	for ri, rate := range w.Rates() {
		for _, comp := range []struct {
			name string
			v    float64
		}{
			{"valid", rate.RootValidPerDay},
			{"invalid", rate.RootInvalidPerDay},
			{"ptr", rate.RootPTRPerDay},
		} {
			if math.IsNaN(comp.v) || math.IsInf(comp.v, 0) || comp.v < 0 {
				r.addf("recursive %d: %s rate %v is not finite non-negative", ri, comp.name, comp.v)
			}
		}
		valid += rate.RootValidPerDay
		invalid += rate.RootInvalidPerDay
		ptr += rate.RootPTRPerDay
	}
	if j := c.JunkQueriesPerDay; math.IsNaN(j) || math.IsInf(j, 0) || j < 0 {
		r.addf("junk volume %v is not finite non-negative", j)
	}
	pv, v6 := ditl.PrivateShare, ditl.V6Share
	if len(r.out) > 0 {
		// The inputs are already broken; the funnel identities below
		// would only re-report the same corruption.
		return r.violations()
	}

	s := c.Preprocess()
	const tol = 1e-9
	if want := invalid + c.JunkQueriesPerDay; !near(s.InvalidPerDay, want, tol) {
		r.addf("invalid bucket %v != %v (rate invalid %v + junk %v)",
			s.InvalidPerDay, want, invalid, c.JunkQueriesPerDay)
	}
	if !near(s.PTRPerDay, ptr, tol) {
		r.addf("ptr bucket %v != %v from rates", s.PTRPerDay, ptr)
	}
	if want := invalid + c.JunkQueriesPerDay + ptr + valid; !near(s.RawPerDay, want, tol) {
		r.addf("raw %v != invalid+ptr+valid = %v: a query left the funnel", s.RawPerDay, want)
	}
	if !near(s.PrivatePerDay, valid*pv, tol) {
		r.addf("private bucket %v != valid %v x share %v", s.PrivatePerDay, valid, pv)
	}
	if !near(s.V6PerDay, valid*v6, tol) {
		r.addf("v6 bucket %v != valid %v x share %v", s.V6PerDay, valid, v6)
	}
	if got := s.RetainedPerDay + s.PrivatePerDay + s.V6PerDay; !near(got, valid, tol) {
		r.addf("retained+private+v6 = %v != valid %v: post-filter buckets are not a partition",
			got, valid)
	}
	return r.violations()
}
