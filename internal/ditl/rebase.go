package ditl

import (
	"context"
	"fmt"

	"anycastctx/internal/anycastnet"
	"anycastctx/internal/dnssim"
	"anycastctx/internal/obs"
)

var (
	obsRebases        = obs.NewCounter("ditl.campaigns_rebased")
	obsRebaseAssembly = obs.NewCounter("ditl.rebase_recursives_reassembled")
)

// Rebase derives the campaign for a mutated world from an already-built
// base campaign. letters are the mutated deployments (same count and
// order as base.Letters; pass anycastnet.Renamed wrappers to keep
// position names for unmutated letters), rates is nil to keep the base
// query rates or a full replacement slice, and tauMs is the rebased
// campaign's letter-preference temperature (base.Cfg.TauMs keeps base's;
// every other Config field is base's). seed must be the seed base was
// built with: the reuse rules below stand in for draws keyed by it.
//
// Every recursive runs through the pass Assemble uses, and six exact
// reuse rules keep it from redoing work whose inputs did not change:
//
//  1. A letter passed as the very deployment at that position in
//     base.Letters copies base's route-table cells without a Route call:
//     a deployment memoizes one decision per source over an immutable
//     graph and site set, and base's table holds those routes priced by
//     the same Model. It shares base's site-distance columns too, filled
//     or not: same sites, same favourite sites, same recursives. When
//     every letter is copied, the rebased campaign shares base's table
//     outright.
//  2. Every other letter is resolved, and a route bit-identical to base's
//     route for the same letter position and source carries base's RTT,
//     which is exact because BaseRTTMs is a pure function of (AS, route);
//     other routes are priced afresh.
//  3. A copied letter carries base's site shares: it has base's sites
//     and base's favourite site, and the draw is keyed by ⟨seed,
//     recursive, letter position⟩. Every other letter redraws them, so a
//     withdrawn or renumbered alternate needs no remap.
//  4. At base's temperature, a recursive whose RTT on every letter has
//     base's bits (+Inf on both sides where unreachable) carries base's
//     letter weights: the softmax jitter is keyed by ⟨seed, recursive,
//     letter position⟩. On base's rates it carries its TCP medians too,
//     because every gate then sees base's volume, weight and RTT. At any
//     other temperature every recursive redraws its weights, and rules
//     1–3, 5 and 6 still hold: nothing they carry depends on a weight.
//  5. Any other cell that passes the TCP volume gate, on the new weights
//     and rates, carries base's TCP median when base drew one over the
//     same RTT bits: the median is a pure function of ⟨seed, recursive,
//     letter position, RTT⟩.
//  6. On base's rates the egress store is shared with base: egress counts
//     and draws depend only on ⟨seed, recursive, rates⟩.
//
// reprice turns all six rules off and re-derives every cell: the scenario
// engine's full-rebuild oracle sets it, so the oracle checks the rules
// instead of sharing them. Either way the result is byte-identical to
// building from scratch on the mutated world at tauMs, because every
// random draw in assembly is keyed by ⟨seed, phase, recursive, letter⟩.
//
// Junk sources are shared with base, not re-derived: their draws depend
// only on ⟨seed, block⟩ and the population's address pool, which Assemble
// copies and never advances, so re-deriving would draw the same blocks.
func (base *Campaign) Rebase(ctx context.Context, letters []*anycastnet.Deployment, rates []dnssim.Rates,
	tauMs float64, reprice bool, seed int64) (*Campaign, error) {
	ctx, span := obs.StartSpanCtx(ctx, "ditl.rebase")
	defer span.End()
	n := base.numRecs
	if len(letters) != len(base.Letters) {
		return nil, fmt.Errorf("ditl: rebase with %d letters, base has %d", len(letters), len(base.Letters))
	}
	if rates != nil && len(rates) != n {
		return nil, fmt.Errorf("ditl: rebase with %d rates for %d recursives", len(rates), n)
	}

	cfg := base.Cfg
	cfg.TauMs = tauMs
	c := &Campaign{
		Letters:           letters,
		Pop:               base.Pop,
		Zone:              base.Zone,
		Rates:             base.Rates,
		Model:             base.Model,
		Cfg:               cfg.withDefaults(),
		Faults:            base.Faults,
		numRecs:           n,
		JunkSources:       base.JunkSources,
		JunkQueriesPerDay: base.JunkQueriesPerDay,
	}
	if rates != nil {
		c.Rates = rates
	}
	for _, l := range letters {
		c.LetterNames = append(c.LetterNames, l.Name)
	}
	as := &assembler{c: c, seed: seed}
	if !reprice {
		as.base = base
		as.sameRates = rates == nil
		as.sameTau = c.Cfg.TauMs == base.Cfg.TauMs
	}

	// Seeded route-cache entries make the table pass a read-through; only
	// the sources SeedFrom left unseeded resolve. The table keeps base's
	// sources, so a cell's base entry sits at the same ⟨letter, source
	// position⟩.
	bt := base.table
	c.table = bt
	shared := true
	for li := range letters {
		shared = shared && as.copies(li)
	}
	if !shared {
		ns := bt.ix.nSrc
		t, err := buildRouteTable(ctx, letters, bt.pop, bt.srcs, bt.ix.pos, func(li, s int) routeCell {
			bix := bt.ix.entry[li*ns+s]
			if as.copies(li) {
				if bix == noRoute {
					return unreachable
				}
				return routeCell{bt.routes[bix], bt.rtt[bix]}
			}
			rt, ok := letters[li].Route(bt.srcs[s])
			if !ok {
				return unreachable
			}
			if !reprice && bix != noRoute && bt.routes[bix].Equal(rt) {
				return routeCell{rt, bt.rtt[bix]}
			}
			return routeCell{rt, c.Model.BaseRTTMs(bt.srcs[s], rt)}
		})
		if err != nil {
			return nil, err
		}
		for li := range letters {
			if as.copies(li) {
				t.dist[li] = bt.dist[li]
			}
		}
		c.table = t
	}

	assembleCtx, assemble := obs.StartSpanCtx(ctx, "ditl.rebase.assemble")
	weighed := as.columns(assembleCtx, "ditl.rebase.shard")
	assemble.End()
	obsRebases.Inc()
	obsRebaseAssembly.Add(uint64(weighed))
	return c, nil
}
