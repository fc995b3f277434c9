package ditl

import (
	"context"
	"fmt"

	"anycastctx/internal/anycastnet"
	"anycastctx/internal/dnssim"
	"anycastctx/internal/ipaddr"
	"anycastctx/internal/obs"
	"anycastctx/internal/par"
)

var (
	obsRebases        = obs.NewCounter("ditl.campaigns_rebased")
	obsRebaseAssembly = obs.NewCounter("ditl.rebase_recursives_reassembled")
)

// Rebase derives the campaign for a mutated world from an already-built
// base campaign. letters are the mutated deployments (same count and
// order as base.Letters; pass anycastnet.Renamed wrappers to keep
// position names for unmutated letters), siteRemap maps each letter's
// base site IDs to mutated ones (-1 = withdrawn; nil slice = identity),
// rates is nil to reuse the base query rates or a full replacement
// slice, and affected flags the recursives whose columns must be
// reassembled from their RNG streams; everything else is copied from
// base with secondary-site IDs remapped. Rebase builds a route table of
// its own for letters, over base's sources. seed must be the seed base
// was built with: the copies, and the three reuse rules below, stand in
// for draws keyed by it.
//
// Rebase re-derives only what changed, by three reuse rules:
//
//   - A letter passed as the very deployment at that position in
//     base.Letters, with no site remap, copies base's route-table cells
//     without a Route call. A deployment memoizes one decision per source
//     over an immutable graph and site set, and base's table holds those
//     routes priced by the same Model. Every other letter is resolved,
//     and a route bit-identical to base's route for the same letter
//     position and source carries base's RTT, which is exact because
//     BaseRTTMs is a pure function of (AS, route); other routes are
//     priced afresh. A base deployment passed with a site remap is an
//     error.
//   - A reassembled cell that passes the TCP volume gate, on the new
//     weights and rates, carries base's TCP median when base drew one
//     over the same RTT bits: the median is a pure function of ⟨seed,
//     recursive, letter position, RTT⟩.
//   - A reassembled recursive whose RTT on every letter has base's bits
//     (+Inf on both sides where unreachable) carries base's letter
//     weights: the softmax jitter is keyed by ⟨seed, recursive, letter
//     position⟩, and the rebased campaign keeps base.Cfg.TauMs.
//
// reprice turns all three rules off and re-derives every cell the
// affected set names: the scenario engine's full-rebuild oracle sets it,
// so the oracle checks the rules instead of sharing them.
//
// The contract — and what the scenario equivalence suite enforces — is
// that the result is byte-identical to building from scratch on the
// mutated world, because every random draw in assembly is keyed by
// ⟨seed, phase, recursive, letter⟩ and never by which subset is being
// assembled. Copies that contradict the affected set (a reachability
// flip, or a secondary site that was withdrawn) are contract violations
// and return an error rather than carrying stale cells.
//
// Junk sources are shared with base, not re-derived: their draws depend
// only on ⟨seed, block⟩ and the address-pool allocation Assemble made, and
// the pool is stateful so allocating again would hand out different
// blocks.
func (base *Campaign) Rebase(ctx context.Context, letters []*anycastnet.Deployment, siteRemap [][]int,
	rates []dnssim.Rates, affected []bool, reprice bool, seed int64) (*Campaign, error) {
	ctx, span := obs.StartSpanCtx(ctx, "ditl.rebase")
	defer span.End()
	n := base.numRecs
	nl := len(base.Letters)
	if len(letters) != nl {
		return nil, fmt.Errorf("ditl: rebase with %d letters, base has %d", len(letters), nl)
	}
	if siteRemap != nil && len(siteRemap) != nl {
		return nil, fmt.Errorf("ditl: rebase with %d site remaps for %d letters", len(siteRemap), nl)
	}
	if rates != nil && len(rates) != n {
		return nil, fmt.Errorf("ditl: rebase with %d rates for %d recursives", len(rates), n)
	}
	if len(affected) != n {
		return nil, fmt.Errorf("ditl: rebase with %d affected flags for %d recursives", len(affected), n)
	}
	// copied[li]: letter li is base's own deployment, so its cells are
	// base's.
	copied := make([]bool, nl)
	for li, l := range letters {
		if l != base.Letters[li] {
			continue
		}
		if siteRemap != nil && siteRemap[li] != nil {
			return nil, fmt.Errorf("ditl: rebase: letter %s is the base deployment but has a site remap", l.Name)
		}
		copied[li] = !reprice
	}

	c := &Campaign{
		Letters: letters,
		Pop:     base.Pop,
		Zone:    base.Zone,
		Rates:   base.Rates,
		Model:   base.Model,
		Cfg:     base.Cfg,
		Faults:  base.Faults,
		numRecs: n,
	}
	if rates != nil {
		c.Rates = rates
	}
	for _, l := range letters {
		c.LetterNames = append(c.LetterNames, l.Name)
	}

	// Seeded route-cache entries make the table pass a read-through; only
	// the dirty set actually resolves. The table keeps base's sources, so
	// a cell's base entry sits at the same ⟨letter, source position⟩.
	bt := base.table
	ns := bt.ix.nSrc
	t, err := buildRouteTable(ctx, letters, bt.srcs, bt.ix.pos, func(li, s int) routeCell {
		bix := bt.ix.entry[li*ns+s]
		if copied[li] {
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
	c.table = t
	c.altSite = make([]uint32, nl*n)
	c.altFrac = make([]float64, nl*n)
	c.tcpMedian = make([]float64, nl*n)
	c.letterWeight = make([]float64, nl*n)

	// Egress store: identical when rates are unchanged, so it is shared
	// outright; otherwise reallocated and refilled/copied per recursive.
	if rates == nil {
		c.egressOff = base.egressOff
		c.egressFlat = base.egressFlat
	} else {
		c.egressOff = make([]uint32, n+1)
		total := 0
		for ri := range rates {
			total += numEgress(rates[ri])
			c.egressOff[ri+1] = uint32(total)
		}
		c.egressFlat = make([]ipaddr.Addr, total)
	}

	nAffected := 0
	for _, a := range affected {
		if a {
			nAffected++
		}
	}

	asm := &assembler{c: c, seed: seed, fillEgress: rates != nil}
	if !reprice {
		asm.base = base
	}
	errs := make([]error, n)
	assembleCtx, assemble := obs.StartSpanCtx(ctx, "ditl.rebase.assemble")
	par.DoCtx(assembleCtx, n, func(ctx context.Context, lo, hi int) {
		_, sp := obs.StartSpanCtx(ctx, "ditl.rebase.shard")
		defer sp.End()
		rtts := make([]float64, nl)
		weights := make([]float64, nl)
		reachable := 0
		for ri := lo; ri < hi; ri++ {
			if affected[ri] {
				reachable += asm.recursive(ri, rtts, weights)
				continue
			}
			errs[ri] = c.carryRecursive(base, ri, siteRemap, rates != nil)
		}
		obsAssignReachable.Add(uint64(reachable))
	})
	assemble.End()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	c.JunkSources = base.JunkSources
	c.JunkQueriesPerDay = base.JunkQueriesPerDay
	obsRebases.Inc()
	obsRebaseAssembly.Add(uint64(nAffected))
	return c, nil
}

// carryRecursive copies recursive ri's cells from base, remapping
// secondary-site IDs (mutations renumber sites); its routes are the
// rebuilt table's. It errors when the copy contradicts the affected-set
// contract: an unaffected recursive whose reachability flipped, whose
// secondary site was withdrawn, or whose egress count changed was
// mis-classified upstream and would otherwise silently carry stale
// cells.
func (c *Campaign) carryRecursive(base *Campaign, ri int, siteRemap [][]int, copyEgress bool) error {
	n := c.numRecs
	asn := c.Pop.Recursives[ri].ASN
	for li := range c.Letters {
		k := li*n + ri
		c.altFrac[k] = base.altFrac[k]
		c.tcpMedian[k] = base.tcpMedian[k]
		c.letterWeight[k] = base.letterWeight[k]
		reachable := c.table.ix.at(li, ri) != noRoute
		if base.table.ix.at(li, ri) == noRoute {
			c.altSite[k] = noAltSite
			if reachable {
				return fmt.Errorf("ditl: rebase: AS%d became reachable on %s but recursive %d was not marked affected",
					asn, c.LetterNames[li], ri)
			}
			continue
		}
		if !reachable {
			return fmt.Errorf("ditl: rebase: AS%d lost its route on %s but recursive %d was not marked affected",
				asn, c.LetterNames[li], ri)
		}
		alt := base.altSite[k]
		if alt != noAltSite && siteRemap != nil && siteRemap[li] != nil {
			m := siteRemap[li]
			if int(alt) >= len(m) || m[alt] < 0 {
				return fmt.Errorf("ditl: rebase: secondary site %d withdrawn on %s but recursive %d was not marked affected",
					alt, c.LetterNames[li], ri)
			}
			alt = uint32(m[alt])
		}
		c.altSite[k] = alt
	}
	if copyEgress {
		dst := c.egressFlat[c.egressOff[ri]:c.egressOff[ri+1]]
		src := base.Egress(ri)
		if len(dst) != len(src) {
			return fmt.Errorf("ditl: rebase: egress count for recursive %d changed (%d -> %d) but it was not marked affected",
				ri, len(src), len(dst))
		}
		copy(dst, src)
	}
	return nil
}

// MarkSecondarySite flags, in affected, every recursive whose cached
// secondary site on letter li satisfies removed — those cells drew an
// alternate that no longer exists, so the whole recursive must be
// reassembled rather than remapped.
func (base *Campaign) MarkSecondarySite(li int, removed func(site int) bool, affected []bool) {
	n := base.numRecs
	for ri := 0; ri < n; ri++ {
		if affected[ri] {
			continue
		}
		if alt := base.altSite[li*n+ri]; alt != noAltSite && removed(int(alt)) {
			affected[ri] = true
		}
	}
}
