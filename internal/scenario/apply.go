package scenario

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"anycastctx/internal/anycastnet"
	"anycastctx/internal/bgp"
	"anycastctx/internal/cdn"
	"anycastctx/internal/ditl"
	"anycastctx/internal/dnssim"
	"anycastctx/internal/geo"
	"anycastctx/internal/obs"
	"anycastctx/internal/rng"
	"anycastctx/internal/topology"
	"anycastctx/internal/world"
)

var (
	obsApplied       = obs.NewCounter("scenario.mutations_applied")
	obsCampaignShare = obs.NewCounter("scenario.campaigns_shared")
)

// addedSite is one site appended by add_site, with its freshly created
// host AS.
type addedSite struct {
	loc  geo.Coord
	host topology.ASN
}

// letterMut accumulates every mutation touching one letter position.
type letterMut struct {
	removed  map[int]bool
	added    []addedSite
	peered   bool // an upgrade_peering targets the letter
	swapWith int  // position index, -1 when not swapped
}

// applied is one spec applied to a base world: the overlay plus the
// remapping metadata the report needs.
type applied struct {
	ov      *world.World
	letters []*anycastnet.Deployment
	// letterRemap[li] maps base site IDs to mutated ones (-1 =
	// withdrawn); nil means identity.
	letterRemap [][]int
	// mutatedLetters / mutatedRings are the positions the SPEC mutated
	// (not the full-rebuild everything), ascending — they drive which
	// report sections render, so they must match across both paths.
	mutatedLetters []int
	mutatedRings   []int
	surge          float64 // 0 when no traffic_surge with factor != 1
	campaignShared bool
}

// apply builds the mutated overlay world. With full set it ignores every
// incremental shortcut: fresh resolvers for all deployments and a
// campaign rebase that re-derives every cell — the from-scratch oracle
// the incremental path must match byte-for-byte.
func apply(ctx context.Context, base *world.World, spec Spec, full bool) (*applied, error) {
	ctx, span := obs.StartSpanCtx(ctx, "scenario.apply")
	defer span.End()
	seed := base.Cfg.Seed
	g2 := base.Graph().Clone()

	letterIndex := func(name string) int {
		for i, l := range base.Letters() {
			if l.Name == name {
				return i
			}
		}
		return -1
	}
	ringIndex := func(name string) int {
		for i, r := range base.CDN().Rings {
			if r.Name == name {
				return i
			}
		}
		return -1
	}

	muts := make(map[int]*letterMut)
	letter := func(li int) *letterMut {
		if m := muts[li]; m != nil {
			return m
		}
		m := &letterMut{removed: map[int]bool{}, swapWith: -1}
		muts[li] = m
		return m
	}
	ringSizes := make(map[int]int)
	cdnPeer := false
	surge := 0.0
	surged := false

	for mi, m := range spec.Mutations {
		switch m.Kind {
		case KindWithdrawSite:
			li := letterIndex(m.Target)
			if li < 0 {
				return nil, fmt.Errorf("scenario %s: withdraw_site: no letter %q", spec.Name, m.Target)
			}
			lm := letter(li)
			sites := base.Letters()[li].Sites
			if m.Site < 0 || m.Site >= len(sites) {
				return nil, fmt.Errorf("scenario %s: withdraw_site: %s has no site %d (0..%d)",
					spec.Name, m.Target, m.Site, len(sites)-1)
			}
			if lm.removed[m.Site] {
				return nil, fmt.Errorf("scenario %s: site %d of %s withdrawn twice", spec.Name, m.Site, m.Target)
			}
			lm.removed[m.Site] = true

		case KindAddSite:
			li := letterIndex(m.Target)
			if li < 0 {
				return nil, fmt.Errorf("scenario %s: add_site: no letter %q (rings resize instead)", spec.Name, m.Target)
			}
			lm := letter(li)
			st := rng.NewRand(seed, rng.PhaseScenario, uint64(mi))
			loc := placeSite(g2, base.Letters()[li].Sites, lm.added, st.Float64(), st.Float64())
			// The new host mirrors AddLetterSites' global-site hosts: the
			// openness of the letter's first (always global) site's host,
			// nearby transit upstreams, single-point presence.
			richness := g2.AS(base.Letters()[li].Sites[0].Host).PeeringRichness
			h := g2.AddHostAS(fmt.Sprintf("root-%s-scn-%d", m.Target, len(lm.added)),
				[]geo.Coord{loc}, anycastnet.NearbyUpstreams(g2, loc, st), richness)
			lm.added = append(lm.added, addedSite{loc: loc, host: h.ASN})

		case KindUpgradePeering:
			n := m.TopEyeballs
			if n == 0 {
				n = DefaultTopEyeballs
			}
			if n < 0 {
				return nil, fmt.Errorf("scenario %s: upgrade_peering: top_eyeballs %d < 0", spec.Name, n)
			}
			var hosts []topology.ASN
			if li := letterIndex(m.Target); li >= 0 {
				seen := map[topology.ASN]bool{}
				for _, s := range base.Letters()[li].Sites {
					if !seen[s.Host] {
						seen[s.Host] = true
						hosts = append(hosts, s.Host)
					}
				}
				letter(li).peered = true
			} else if strings.EqualFold(m.Target, "cdn") || ringIndex(m.Target) >= 0 {
				// All rings share the CDN's network, so any CDN-flavored
				// target upgrades every ring.
				hosts = []topology.ASN{base.CDN().ASN}
				cdnPeer = true
			} else {
				return nil, fmt.Errorf("scenario %s: upgrade_peering: no letter or ring %q", spec.Name, m.Target)
			}
			for _, e := range topEyeballs(g2, n) {
				for _, h := range hosts {
					if !g2.Peered(e, h) {
						g2.Peer(e, h)
					}
				}
			}

		case KindResizeRing:
			ci := ringIndex(m.Target)
			if ci < 0 {
				return nil, fmt.Errorf("scenario %s: resize_ring: no ring %q", spec.Name, m.Target)
			}
			if m.Size < 1 || m.Size > len(base.CDN().PoPs) {
				return nil, fmt.Errorf("scenario %s: resize_ring: size %d out of 1..%d",
					spec.Name, m.Size, len(base.CDN().PoPs))
			}
			if _, dup := ringSizes[ci]; dup {
				return nil, fmt.Errorf("scenario %s: ring %s resized twice", spec.Name, m.Target)
			}
			ringSizes[ci] = m.Size

		case KindSwapLetters:
			li, lj := letterIndex(m.Target), letterIndex(m.With)
			if li < 0 || lj < 0 || li == lj {
				return nil, fmt.Errorf("scenario %s: swap_letters: bad pair %q/%q", spec.Name, m.Target, m.With)
			}
			for _, l := range []int{li, lj} {
				if letter(l).swapWith >= 0 {
					return nil, fmt.Errorf("scenario %s: letter %s swapped twice", spec.Name, base.Letters()[l].Name)
				}
			}
			letter(li).swapWith = lj
			letter(lj).swapWith = li

		case KindTrafficSurge:
			if !(m.Factor > 0) {
				return nil, fmt.Errorf("scenario %s: traffic_surge: factor %g must be > 0", spec.Name, m.Factor)
			}
			if surged {
				return nil, fmt.Errorf("scenario %s: traffic_surge given twice", spec.Name)
			}
			surged = true
			if m.Factor != 1 {
				surge = m.Factor
			}

		default:
			return nil, fmt.Errorf("scenario %s: unknown mutation kind %q", spec.Name, m.Kind)
		}
	}
	obsApplied.Add(uint64(len(spec.Mutations)))

	// Swaps move whole deployments; composing them with shape or peering
	// mutations on the same letter would make the remap ambiguous.
	for li, lm := range muts {
		if lm.swapWith >= 0 && (len(lm.removed) > 0 || len(lm.added) > 0 || lm.peered) {
			return nil, fmt.Errorf("scenario %s: swap_letters cannot combine with other mutations on letter %s",
				spec.Name, base.Letters()[li].Name)
		}
	}

	app := &applied{
		letters:     make([]*anycastnet.Deployment, len(base.Letters())),
		letterRemap: make([][]int, len(base.Letters())),
		surge:       surge,
	}
	for li := range muts {
		app.mutatedLetters = append(app.mutatedLetters, li)
	}
	sort.Ints(app.mutatedLetters)

	routesCtx, routes := obs.StartSpanCtx(ctx, "scenario.routes")
	// derive builds a mutated deployment: from scratch under full, else
	// seeded from baseDep's routes. The report resolves baseDep over the
	// base eyeballs anyway (catchmentShift), so resolving them first lets
	// the variant seed from them even when baseDep's memo starts empty,
	// as on a fresh or store-loaded world.
	eyeballs := base.Graph().Eyeballs()
	derive := func(baseDep *anycastnet.Deployment, sites []bgp.Site) (*anycastnet.Deployment, error) {
		if full {
			return anycastnet.NewDeployment(g2, baseDep.Name, sites)
		}
		baseDep.WarmRoutesCtx(routesCtx, eyeballs)
		return anycastnet.Derive(baseDep, g2, baseDep.Name, sites)
	}
	for li, baseDep := range base.Letters() {
		lm := muts[li]
		switch {
		case lm == nil:
			if full {
				d, err := anycastnet.NewDeployment(g2, baseDep.Name, baseDep.Sites)
				if err != nil {
					return nil, err
				}
				app.letters[li] = d
			} else {
				app.letters[li] = baseDep
			}
		case lm.swapWith >= 0:
			src := base.Letters()[lm.swapWith]
			if full {
				d, err := anycastnet.NewDeployment(g2, baseDep.Name, src.Sites)
				if err != nil {
					return nil, err
				}
				app.letters[li] = d
			} else {
				// The swapped-in deployment keeps its resolver (the route
				// cache is keyed by sites, not by position) under this
				// position's name.
				app.letters[li] = anycastnet.Renamed(src, baseDep.Name)
			}
		default:
			sites, remap, err := mutateLetterSites(spec.Name, baseDep, lm)
			if err != nil {
				return nil, err
			}
			app.letterRemap[li] = remap
			d, err := derive(baseDep, sites)
			if err != nil {
				return nil, err
			}
			app.letters[li] = d
		}
	}

	// Rings: always rebuilt as a fresh ring slice on the overlay graph;
	// untouched rings share the base deployment (and with it the cache).
	newRings := make([]*cdn.Ring, len(base.CDN().Rings))
	for ci, ring := range base.CDN().Rings {
		newSize, resized := ringSizes[ci]
		if resized || cdnPeer {
			app.mutatedRings = append(app.mutatedRings, ci)
		}
		if !resized && !cdnPeer && !full {
			newRings[ci] = ring
			continue
		}
		if !resized {
			newSize = ring.Size()
		}
		sites := make([]bgp.Site, newSize)
		locs := make([]geo.Coord, newSize)
		for i := 0; i < newSize; i++ {
			sites[i] = bgp.Site{ID: i, Loc: base.CDN().PoPs[i], Host: base.CDN().ASN, Global: true}
			locs[i] = base.CDN().PoPs[i]
		}
		dep, err := derive(ring.Deployment, sites)
		if err != nil {
			return nil, err
		}
		newRings[ci] = &cdn.Ring{Name: ring.Name, Deployment: dep, SiteLocs: locs}
	}
	routes.End()

	// Campaign: ring-only scenarios leave it untouched — share it.
	// Anything touching letters or rates rebases, and the rebase decides
	// from its inputs which cells it can reuse. The /24 join reads only
	// the population, the rates and the CDN counts, so on base's rates
	// the overlay shares base's join too.
	rates, camp := base.Rates(), base.Campaign()
	var join *ditl.Join
	if surge == 0 && !full {
		join = base.JoinCtx(ctx)
	}
	var err error
	if len(app.mutatedLetters) == 0 && surge == 0 && !full {
		app.campaignShared = true
		obsCampaignShare.Inc()
	} else {
		var surged []dnssim.Rates
		if surge != 0 {
			surged = surgeRates(rates, surge)
			rates = surged
		}
		campCtx, campSpan := obs.StartSpanCtx(ctx, "scenario.campaign")
		camp, err = camp.Rebase(campCtx, app.letters, surged, camp.Cfg.TauMs, full, seed)
		campSpan.End()
		if err != nil {
			return nil, err
		}
	}
	if app.ov, err = base.Overlay(ctx, g2, app.letters, base.CDN().Overlay(g2, newRings), rates, camp, join); err != nil {
		return nil, err
	}
	return app, nil
}

// mutateLetterSites composes withdrawals and additions on one letter into
// the mutated site list and the base→mutated site remap.
func mutateLetterSites(specName string, baseDep *anycastnet.Deployment, lm *letterMut) ([]bgp.Site, []int, error) {
	baseSites := baseDep.Sites
	var remap []int
	sites := append([]bgp.Site(nil), baseSites...)
	if len(lm.removed) > 0 {
		remap = make([]int, len(baseSites))
		sites = sites[:0]
		for i, s := range baseSites {
			if lm.removed[i] {
				remap[i] = -1
				continue
			}
			remap[i] = len(sites)
			s.ID = len(sites)
			sites = append(sites, s)
		}
	}
	for _, a := range lm.added {
		sites = append(sites, bgp.Site{ID: len(sites), Loc: a.loc, Host: a.host, Global: true})
	}
	global := 0
	for _, s := range sites {
		if s.Global {
			global++
		}
	}
	if global == 0 {
		return nil, nil, fmt.Errorf("scenario %s: letter %s left with no global site", specName, baseDep.Name)
	}
	return sites, remap, nil
}

// siteSpacing is how far placeSite keeps a new site from the letter's
// global sites.
var siteSpacing = geo.NewRadius(1000)

// placeSite picks the heaviest region with no global site of the letter
// within 1000 km (operators deploy where uncovered users are), jittered
// like AddLetterSites' global sites.
func placeSite(g2 *topology.Graph, baseSites []bgp.Site, added []addedSite, u1, u2 float64) geo.Coord {
	var sites []geo.Point
	for _, s := range baseSites {
		if s.Global {
			sites = append(sites, geo.Prepare(s.Loc))
		}
	}
	for _, a := range added {
		sites = append(sites, geo.Prepare(a.loc))
	}
	regions := g2.HeaviestRegions()
	pick := regions[0]
	for _, r := range regions {
		center := geo.Prepare(r.Center)
		covered := false
		for _, s := range sites {
			if center.Within(s, siteSpacing) {
				covered = true
				break
			}
		}
		if !covered {
			pick = r
			break
		}
	}
	return geo.Jitter(pick.Center, 60, u1, u2)
}

// topEyeballs returns the n heaviest eyeball ASes by user weight
// (ASN-ascending tie-break).
func topEyeballs(g *topology.Graph, n int) []topology.ASN {
	eyes := append([]topology.ASN(nil), g.Eyeballs()...)
	sort.SliceStable(eyes, func(i, j int) bool {
		wi, wj := g.AS(eyes[i]).UserWeight, g.AS(eyes[j]).UserWeight
		if wi != wj {
			return wi > wj
		}
		return eyes[i] < eyes[j]
	})
	if n > len(eyes) {
		n = len(eyes)
	}
	return eyes[:n]
}

// surgeRates scales the realized query volumes by factor. IdealPerDay is
// left alone: it is the once-per-TTL hypothetical, a property of the
// zone, not of demand.
func surgeRates(base []dnssim.Rates, factor float64) []dnssim.Rates {
	rates := append([]dnssim.Rates(nil), base...)
	for i := range rates {
		r := &rates[i]
		r.UserQueriesPerDay *= factor
		r.RootValidPerDay *= factor
		r.RootInvalidPerDay *= factor
		r.RootPTRPerDay *= factor
	}
	return rates
}
