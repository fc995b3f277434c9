package check

import (
	"context"
	"math"

	"anycastctx/internal/world"
)

// CampaignStore asserts the compact assignment store is internally sound
// and that its materialized views agree with slow oracles recomputed from
// first principles: Campaign.IntegrityViolations covers the private
// columns (index bounds, egress offsets), and a strided cell sample
// cross-checks At against the BGP resolver and the latency model, and
// Egress against the forwarder/volume rule.
type CampaignStore struct{}

// storeSampleTarget bounds the oracle cross-check: BaseRTTMs recomputes
// per-cell latency-model work, so at paper scale the sample strides
// instead of visiting all ~10M cells. The stride is deterministic in the
// cell count alone.
const storeSampleTarget = 20000

// Name implements Checker.
func (CampaignStore) Name() string { return "campaign-store" }

// Check implements Checker.
func (CampaignStore) Check(_ context.Context, w *world.World) []Violation {
	r := &reporter{name: CampaignStore{}.Name()}
	c := w.Campaign()
	for _, msg := range c.IntegrityViolations() {
		r.addf("%s", msg)
	}
	if len(r.out) > 0 {
		// Broken column structure: At/Egress below could index garbage.
		return r.violations()
	}

	n := c.NumRecursives()
	cells := len(c.Letters) * n
	stride := cells / storeSampleTarget
	if stride < 1 {
		stride = 1
	}
	for k := 0; k < cells; k += stride {
		li, ri := k/n, k%n
		a := c.At(li, ri)
		rec := &c.Pop.Recursives[ri]
		rt, ok := c.Letters[li].Route(rec.ASN)
		if ok != a.Reachable {
			r.addf("letter %s recursive %d: store reachable=%v but BGP oracle says %v",
				c.LetterNames[li], ri, a.Reachable, ok)
			continue
		}
		if !ok {
			continue
		}
		if !a.Route.Equal(rt) {
			r.addf("letter %s recursive %d: stored route %s != oracle %s",
				c.LetterNames[li], ri, routeString(a.Route), routeString(rt))
		}
		// BaseRTTMs is a pure function of (AS, route), deduplicated in the
		// store on exactly that key, so the oracle must match bit-for-bit.
		if want := c.Model.BaseRTTMs(rec.ASN, rt); a.BaseRTTMs != want {
			r.addf("letter %s recursive %d: stored base RTT %v != model oracle %v",
				c.LetterNames[li], ri, a.BaseRTTMs, want)
		}
		if m := a.TCPMedianRTTMs; !math.IsNaN(m) && !(m > 0 && !math.IsInf(m, 0)) {
			r.addf("letter %s recursive %d: TCP median %v is neither NaN nor a positive RTT",
				c.LetterNames[li], ri, m)
		}
		if f := a.FavoriteFrac(); f < 1-c.Cfg.SecondaryShareMax-1e-9 {
			r.addf("letter %s recursive %d: favorite share %v below 1-SecondaryShareMax %v",
				c.LetterNames[li], ri, f, 1-c.Cfg.SecondaryShareMax)
		}
	}

	riStride := n / storeSampleTarget
	if riStride < 1 {
		riStride = 1
	}
	for ri := 0; ri < n; ri += riStride {
		eg := len(c.Egress(ri))
		if w.Rates()[ri].RootTotalPerDay() < 0.5 {
			if eg != 0 {
				r.addf("recursive %d: forwarder exposes %d DITL egress addresses, want 0", ri, eg)
			}
		} else if eg < 1 || eg > 8 {
			r.addf("recursive %d: %d egress addresses outside [1, 8]", ri, eg)
		}
	}
	return r.violations()
}
