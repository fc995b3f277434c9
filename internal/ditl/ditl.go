// Package ditl builds the DITL-style measurement campaign: it assigns
// every recursive /24 a catchment, latency, and query mix for every root
// letter, mirrors the paper's §2.1 pre-processing (junk/PTR/private/v6
// filtering, /24 aggregation), joins query volumes with CDN user counts
// (DITL∩CDN), and can emit sampled pcap captures per root site.
package ditl

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"anycastctx/internal/anycastnet"
	"anycastctx/internal/bgp"
	"anycastctx/internal/dnssim"
	"anycastctx/internal/faults"
	"anycastctx/internal/ipaddr"
	"anycastctx/internal/latency"
	"anycastctx/internal/obs"
	"anycastctx/internal/par"
	"anycastctx/internal/rng"
	"anycastctx/internal/topology"
	"anycastctx/internal/users"
)

// Observability handles. The filter gauges mirror the §2.1 pre-processing
// funnel (drop volume per reason, queries/day) from the last Preprocess
// call; campaign counters accumulate across builds.
var (
	obsCampaigns       = obs.NewCounter("ditl.campaigns_built")
	obsAssignments     = obs.NewCounter("ditl.assignments")
	obsAssignReachable = obs.NewCounter("ditl.assignments_reachable")
	obsJunk24s         = obs.NewCounter("ditl.junk_slash24s")
	obsPcapCaptures    = obs.NewCounter("ditl.pcap_captures")
	obsPcapPackets     = obs.NewCounter("ditl.pcap_packets")
	obsFilterInvalid   = obs.NewGauge("ditl.filter_invalid_per_day")
	obsFilterPTR       = obs.NewGauge("ditl.filter_ptr_per_day")
	obsFilterPrivate   = obs.NewGauge("ditl.filter_private_per_day")
	obsFilterV6        = obs.NewGauge("ditl.filter_v6_per_day")
	obsFilterRetained  = obs.NewGauge("ditl.filter_retained_per_day")

	// Capture degradation funnel: faults the pipeline absorbed instead of
	// aborting on (emission side: packets lost to a withdrawn site;
	// analysis side: records the summarizer read but had to skip).
	obsPcapWithdrawn   = obs.NewCounter("ditl.capture_packets_withdrawn")
	obsSumTruncated    = obs.NewCounter("ditl.capture_truncated_skipped")
	obsSumMalformedPkt = obs.NewCounter("ditl.capture_malformed_packets")
	obsSumMalformedDNS = obs.NewCounter("ditl.capture_malformed_dns")
)

// SiteShare is one site's share of a recursive's queries to a letter.
type SiteShare struct {
	SiteID int
	Frac   float64
}

// Assignment is the analysis view of one ⟨recursive /24, letter⟩ pair,
// materialized on demand by Campaign.At from the compact column store. It
// is a value: cheap to copy, never aliases campaign memory.
type Assignment struct {
	// Reachable is false when the letter has no route from this AS.
	Reachable bool
	// Route is the BGP outcome for the recursive's AS.
	Route bgp.Route
	// BaseRTTMs is the deterministic RTT to the favorite site.
	BaseRTTMs float64
	// TCPMedianRTTMs is the measured median over TCP handshakes to the
	// favorite site; NaN when fewer than 10 TCP samples exist (§3).
	TCPMedianRTTMs float64
	// LetterWeight is the share of the recursive's valid root queries sent
	// to this letter (sRTT preference, §3).
	LetterWeight float64

	nSites uint8
	sites  [2]SiteShare
}

// Sites lists the sites this /24's queries actually reach with their
// shares (usually one; occasionally two due to intermediate-AS load
// balancing, Appendix B.2). The returned slice aliases a, not the
// campaign.
func (a *Assignment) Sites() []SiteShare { return a.sites[:a.nSites] }

// NumSites returns how many sites the /24's queries reach (0 when
// unreachable, else 1 or 2).
func (a *Assignment) NumSites() int { return int(a.nSites) }

// FavoriteFrac returns the largest site share (Eq. 3's favorite-site mass).
func (a *Assignment) FavoriteFrac() float64 {
	best := 0.0
	for _, s := range a.sites[:a.nSites] {
		if s.Frac > best {
			best = s.Frac
		}
	}
	return best
}

// Config tunes campaign construction.
type Config struct {
	// TauMs is the softmax temperature of letter preference: lower means
	// recursives concentrate harder on their fastest letter.
	TauMs float64
	// SecondaryShareMax bounds the secondary site's share.
	SecondaryShareMax float64
}

func (c Config) withDefaults() Config {
	if c.TauMs == 0 {
		c.TauMs = 25
	}
	if c.SecondaryShareMax == 0 {
		c.SecondaryShareMax = 0.45
	}
	return c
}

// V6Share and PrivateShare are the fractions of valid volume excluded by
// pre-processing (§2.1: 12% IPv6, 7% private space).
const (
	V6Share      float64 = 0.12
	PrivateShare float64 = 0.07
)

// Campaign calibration that every configuration shares.
const (
	// secondarySiteProb is the chance a /24's queries to a letter split
	// across two sites (load balancing in intermediate ASes, B.2 finds
	// this for <20% of /24s).
	secondarySiteProb float64 = 0.15
	// junkSlash24sPerRecursive scales how many junk-only source /24s
	// (scanners, misconfigured hosts) appear in the raw captures.
	junkSlash24sPerRecursive float64 = 2.0
	// egressOverlapProb is the chance a CDN-observable resolver IP also
	// appears as a DITL query source; DITL egress IPs mostly differ from
	// the user-facing addresses Microsoft observes, which is why the /24
	// join matters (Table 4).
	egressOverlapProb float64 = 0.10
	// minTCPSamples is the per-site threshold for a usable median RTT.
	minTCPSamples float64 = 10
)

// Sentinels for the compact store's uint32 index columns.
const (
	noRoute   = ^uint32(0) // route index: letter unreachable from this AS
	noAltSite = ^uint32(0) // altSite: all queries go to the favorite site
)

// Campaign is the assembled measurement campaign.
//
// The assignment matrix is stored as struct-of-arrays rather than
// [][]Assignment: recursives in one AS share a BGP route and a base RTT,
// which live once per ⟨letter, AS⟩ in the RouteTable the campaign was
// assembled on, so per-cell storage is only the few values that really
// vary per cell. At scale 1 this cuts the hot structure from ~150 B to
// ~28 B per ⟨/24, letter⟩ cell and removes two heap objects (the Sites
// slice and the per-letter row) per cell. Campaign.At materializes the
// classic Assignment view on demand.
type Campaign struct {
	Letters     []*anycastnet.Deployment
	LetterNames []string
	Pop         *users.Population
	Zone        *dnssim.Zone
	Rates       []dnssim.Rates
	Model       *latency.Model
	Cfg         Config
	// Faults is the fault-injection policy for capture emission (site
	// withdrawal mid-run). The zero value injects nothing.
	Faults faults.Policy

	numRecs int

	// table holds every cell's route and base RTT: cell (li, ri) reads
	// entry table.ix.at(li, ri), noRoute when unreachable.
	table *RouteTable

	// Assignment columns, indexed li*numRecs+ri. altSite/altFrac
	// describe the occasional secondary site (noAltSite = single-site,
	// favorite share reconstructed as 1-altFrac).
	altSite      []uint32
	altFrac      []float64
	tcpMedian    []float64
	letterWeight []float64

	// Egress addresses for all recursives, flattened: recursive ri owns
	// egressFlat[egressOff[ri]:egressOff[ri+1]].
	egressFlat []ipaddr.Addr
	egressOff  []uint32

	// JunkSources are junk-only source addresses (one per junk /24).
	JunkSources []ipaddr.Addr
	// JunkQueriesPerDay is the junk volume from non-recursive sources.
	JunkQueriesPerDay float64
}

// NumRecursives returns the number of recursive /24s in the campaign.
func (c *Campaign) NumRecursives() int { return c.numRecs }

// RouteTable returns the route table the campaign was assembled on.
func (c *Campaign) RouteTable() *RouteTable { return c.table }

// SiteDistances returns the great-circle km from recursive ri to its
// favourite site on letter li, the site of the route the campaign's
// table holds, and to the letter's closest global site (Eq. 1 and
// Eq. 2). Both are NaN when the letter has no route from ri's AS. The
// first call for a letter fills its columns for every recursive; every
// campaign on the same table, and a rebase that copies the letter,
// reads the same columns.
func (c *Campaign) SiteDistances(li, ri int) (favoriteKm, closestKm float64) {
	d := c.table.distances(li)
	return d.favorite[ri], d.closest[ri]
}

// At materializes the assignment for letter li and recursive ri.
func (c *Campaign) At(li, ri int) Assignment {
	k := li*c.numRecs + ri
	a := Assignment{
		TCPMedianRTTMs: c.tcpMedian[k],
		LetterWeight:   c.letterWeight[k],
	}
	rix := c.table.ix.at(li, ri)
	if rix == noRoute {
		return a
	}
	a.Reachable = true
	a.Route = c.table.routes[rix]
	a.BaseRTTMs = c.table.rtt[rix]
	if alt := c.altSite[k]; alt != noAltSite {
		share := c.altFrac[k]
		a.sites = [2]SiteShare{
			{SiteID: a.Route.SiteID, Frac: 1 - share},
			{SiteID: int(alt), Frac: share},
		}
		a.nSites = 2
	} else {
		a.sites[0] = SiteShare{SiteID: a.Route.SiteID, Frac: 1}
		a.nSites = 1
	}
	return a
}

// rtt returns recursive ri's base RTT on letter li, +Inf when the
// letter has no route from its AS.
func (c *Campaign) rtt(li, ri int) float64 {
	ix := c.table.ix.at(li, ri)
	if ix == noRoute {
		return math.Inf(1)
	}
	return c.table.rtt[ix]
}

// Egress returns recursive ri's DITL query-source addresses (empty for
// forwarders, which never appear in DITL). The slice aliases campaign
// storage; callers must not modify it.
func (c *Campaign) Egress(ri int) []ipaddr.Addr {
	return c.egressFlat[c.egressOff[ri]:c.egressOff[ri+1]]
}

// Build assembles the campaign on a route table of its own:
// BuildRouteTable, then Assemble, under one "ditl.build" span. g is the
// graph the letters were deployed on; the table reads it through them.
func Build(ctx context.Context, g *topology.Graph, letters []*anycastnet.Deployment, pop *users.Population,
	zone *dnssim.Zone, rates []dnssim.Rates, model *latency.Model, cfg Config, seed int64) (*Campaign, error) {
	ctx, build := obs.StartSpanCtx(ctx, "ditl.build")
	defer build.End()
	t, err := BuildRouteTable(ctx, letters, pop, model)
	if err != nil {
		return nil, err
	}
	return Assemble(ctx, t, letters, pop, zone, rates, model, cfg, seed)
}

// Assemble builds the campaign's columns on route table t, which must be
// the table of these very letters and pop. rates must parallel
// pop.Recursives; zone may be nil when no pcap emission with real
// referrals is needed. ctx carries the caller's span: a traced assembly
// records "ditl.assemble" with its "ditl.assemble.shard" workers.
//
// Every random quantity is drawn from a splittable stream keyed by
// ⟨recursive, letter⟩ (rng.Split/Fork), so the per-recursive assembly
// fans out under par.DoCtx with byte-identical columns at any worker
// count, and the junk-source volume folds in index order so the float
// sum is schedule-independent. Junk /24s come from a copy of pop.Pool,
// so Assemble never writes pop and equal inputs draw equal blocks.
func Assemble(ctx context.Context, t *RouteTable, letters []*anycastnet.Deployment, pop *users.Population,
	zone *dnssim.Zone, rates []dnssim.Rates, model *latency.Model, cfg Config, seed int64) (*Campaign, error) {
	n, nl := len(pop.Recursives), len(letters)
	if len(rates) != n {
		return nil, fmt.Errorf("ditl: %d rates for %d recursives", len(rates), n)
	}
	if err := t.fits(letters, pop); err != nil {
		return nil, err
	}
	ctx, assemble := obs.StartSpanCtx(ctx, "ditl.assemble")
	defer assemble.End()
	c := &Campaign{
		Letters: letters,
		Pop:     pop,
		Zone:    zone,
		Rates:   rates,
		Model:   model,
		Cfg:     cfg.withDefaults(),
		numRecs: n,
		table:   t,
	}
	for _, l := range letters {
		c.LetterNames = append(c.LetterNames, l.Name)
	}
	(&assembler{c: c, seed: seed}).columns(ctx, "ditl.assemble.shard")

	// Junk-only sources: addresses and volumes draw per-block streams in
	// parallel; the volume sum folds serially in index order so the float
	// total is schedule-independent.
	nJunk := int(junkSlash24sPerRecursive * float64(n))
	pool := *pop.Pool
	blocks, err := pool.AllocSlash24s(nJunk)
	if err != nil {
		return nil, fmt.Errorf("ditl: allocating junk sources: %w", err)
	}
	c.JunkSources = make([]ipaddr.Addr, len(blocks))
	junkVol := make([]float64, len(blocks))
	par.Do(len(blocks), func(lo, hi int) {
		for j := lo; j < hi; j++ {
			st := rng.Split(seed, rng.PhaseDITLJunk, uint64(j))
			c.JunkSources[j] = blocks[j].Nth(uint64(1 + st.Intn(250)))
			junkVol[j] = 50 + st.ExpFloat64()*2000
		}
	})
	for _, v := range junkVol {
		c.JunkQueriesPerDay += v
	}
	obsCampaigns.Inc()
	obsAssignments.Add(uint64(nl * n))
	obsJunk24s.Add(uint64(len(c.JunkSources)))
	return c, nil
}

// assembler carries the immutable inputs of per-recursive column
// assembly. Assemble and Rebase share it: every random draw is keyed by
// ⟨seed, phase, recursive, letter⟩ alone, so a recursive's cells never
// depend on which pass assembles it.
type assembler struct {
	c    *Campaign
	seed int64
	// base, when set, is the campaign Rebase derives c from, built with
	// the same seed and latency model and c's config but for its
	// temperature. Cells whose inputs it shares bit for bit are carried
	// from it instead of redrawn (Rebase lists the rules). Assemble and
	// the full rebuild leave it nil.
	base *Campaign
	// sameRates is set when base is set and c keeps base's rates: the
	// egress store is then base's, and a recursive that carries its
	// letter weights carries its TCP medians too.
	sameRates bool
	// sameTau is set when base is set and c keeps base's temperature, the
	// only case in which a recursive can carry its letter weights.
	sameTau bool
}

// copies reports whether letter li is base's own deployment at that
// position, whose route cells and site shares are base's.
func (as *assembler) copies(li int) bool {
	return as.base != nil && as.c.Letters[li] == as.base.Letters[li]
}

// columns allocates c's four assignment columns, lays out the egress
// store from c.Rates unless it is base's, and fills every recursive's
// cells in one par.DoCtx pass whose workers record spans named shard. It
// returns how many recursives derived their letter weights rather than
// carrying them from base.
func (as *assembler) columns(ctx context.Context, shard string) int {
	c := as.c
	n, nl := c.numRecs, len(c.Letters)
	c.altSite = make([]uint32, nl*n)
	c.altFrac = make([]float64, nl*n)
	c.tcpMedian = make([]float64, nl*n)
	c.letterWeight = make([]float64, nl*n)
	if as.sameRates {
		c.egressOff, c.egressFlat = as.base.egressOff, as.base.egressFlat
	} else {
		// The egress count per recursive depends only on rates, so the
		// flat store is prefix-summed up front and each recursive writes
		// its own exact sub-slice in the fan-out.
		c.egressOff = make([]uint32, n+1)
		total := 0
		for ri := range c.Rates {
			total += numEgress(c.Rates[ri])
			c.egressOff[ri+1] = uint32(total)
		}
		c.egressFlat = make([]ipaddr.Addr, total)
	}

	var weighed atomic.Int64
	par.DoCtx(ctx, n, func(ctx context.Context, lo, hi int) {
		_, sp := obs.StartSpanCtx(ctx, shard)
		defer sp.End()
		rtts := make([]float64, nl)
		weights := make([]float64, nl)
		reachable, w := 0, int64(0)
		for ri := lo; ri < hi; ri++ {
			r, derived := as.recursive(ri, rtts, weights)
			reachable += r
			if derived {
				w++
			}
		}
		obsAssignReachable.Add(uint64(reachable))
		weighed.Add(w)
	})
	return int(weighed.Load())
}

// recursive fills every column of recursive ri across all letters. It
// returns how many letters reach it and whether it derived its letter
// weights. rtts and weights are caller-owned scratch of length
// len(c.Letters).
func (as *assembler) recursive(ri int, rtts, weights []float64) (reachable int, weighed bool) {
	c, b := as.c, as.base
	t := c.table
	n := c.numRecs
	rec := &c.Pop.Recursives[ri]
	siteStream := rng.Split(as.seed, rng.PhaseDITLSites, uint64(ri))
	for li := range c.Letters {
		k := li*n + ri
		c.altSite[k] = noAltSite
		rix := t.ix.at(li, ri)
		if rix == noRoute {
			rtts[li] = math.Inf(1)
			continue
		}
		reachable++
		rtts[li] = t.rtt[rix]
		if as.copies(li) {
			c.altSite[k], c.altFrac[k] = b.altSite[k], b.altFrac[k]
			continue
		}

		// Site shares: favorite plus an occasional secondary.
		cell := siteStream.Fork(uint64(li))
		if cell.Float64() < secondarySiteProb {
			if alt, ok := alternateSite(c.Letters[li], t.routes[rix].SiteID); ok {
				c.altSite[k] = uint32(alt)
				c.altFrac[k] = cell.Float64() * c.Cfg.SecondaryShareMax
			}
		}
	}

	// Letter preference: softmax over per-recursive jittered RTTs. The
	// jitter is keyed by ⟨seed, recursive, letter⟩, so at base's
	// temperature weights over bit-identical RTTs are base's weights; on
	// base's rates every TCP gate then sees base's inputs as well.
	if as.sameTau && b.sameRTTs(ri, rtts) {
		for li := range c.Letters {
			c.letterWeight[li*n+ri] = b.letterWeight[li*n+ri]
		}
		if as.sameRates {
			for li := range c.Letters {
				c.tcpMedian[li*n+ri] = b.tcpMedian[li*n+ri]
			}
			return reachable, false
		}
	} else {
		weighed = true
		prefStream := rng.Split(as.seed, rng.PhaseDITLPref, uint64(ri))
		var sum float64
		for li := range weights {
			weights[li] = 0
		}
		for li := range c.Letters {
			if math.IsInf(rtts[li], 1) {
				continue
			}
			cell := prefStream.Fork(uint64(li))
			jitter := 1 + 0.1*cell.NormFloat64()
			weights[li] = math.Exp(-rtts[li] * jitter / c.Cfg.TauMs)
			if weights[li] < 0.005 {
				weights[li] = 0.005 // exploration floor
			}
			sum += weights[li]
		}
		if sum > 0 {
			for li := range c.Letters {
				c.letterWeight[li*n+ri] = weights[li] / sum
			}
		}
	}

	// TCP medians where volume suffices. The median is a pure function of
	// ⟨seed, recursive, letter, RTT⟩, so a base cell that drew one over
	// the same RTT bits already holds it.
	var tcpStream rng.Stream
	split := false
	for li := range c.Letters {
		k := li*n + ri
		c.tcpMedian[k] = math.NaN()
		if math.IsInf(rtts[li], 1) {
			continue
		}
		tcpVol := c.Rates[ri].RootValidPerDay * c.letterWeight[k] * c.Rates[ri].TCPShare
		if tcpVol < minTCPSamples {
			continue
		}
		if b != nil && !math.IsNaN(b.tcpMedian[k]) &&
			math.Float64bits(b.rtt(li, ri)) == math.Float64bits(rtts[li]) {
			c.tcpMedian[k] = b.tcpMedian[k]
			continue
		}
		if !split {
			tcpStream, split = rng.Split(as.seed, rng.PhaseDITLTCP, uint64(ri)), true
		}
		cell := tcpStream.Fork(uint64(li))
		c.tcpMedian[k] = c.Model.MedianOfSamples(&cell, rtts[li]+0.5, 11)
	}

	// Egress IPs: high offsets in the /24, with a small chance of
	// reusing the CDN-observable resolver IPs. Forwarders never
	// appear as DITL sources. On base's rates the store is base's.
	if as.sameRates {
		return reachable, weighed
	}
	egStream := rng.Split(as.seed, rng.PhaseDITLEgress, uint64(ri))
	off := int(c.egressOff[ri])
	for k := 0; k < int(c.egressOff[ri+1])-off; k++ {
		if egStream.Float64() < egressOverlapProb && k < len(rec.IPs) {
			c.egressFlat[off+k] = rec.IPs[k]
		} else {
			c.egressFlat[off+k] = rec.Key.Prefix().Nth(uint64(100 + k))
		}
	}
	return reachable, weighed
}

// sameRTTs reports whether rtts holds, bit for bit, recursive ri's base
// RTT on every letter (+Inf where the letter has no route).
func (c *Campaign) sameRTTs(ri int, rtts []float64) bool {
	for li, r := range rtts {
		if math.Float64bits(c.rtt(li, ri)) != math.Float64bits(r) {
			return false
		}
	}
	return true
}

// numEgress returns how many DITL egress addresses a recursive exposes:
// zero for forwarders, else growing with log volume, capped at 8.
func numEgress(r dnssim.Rates) int {
	if r.RootTotalPerDay() < 0.5 {
		return 0
	}
	n := 1 + int(math.Log10(1+r.RootTotalPerDay()))
	if n > 8 {
		n = 8
	}
	return n
}

// alternateSite picks the next global site after siteID, if any.
func alternateSite(d *anycastnet.Deployment, siteID int) (int, bool) {
	for off := 1; off < len(d.Sites); off++ {
		cand := (siteID + off) % len(d.Sites)
		if d.Sites[cand].Global && cand != siteID {
			return cand, true
		}
	}
	return 0, false
}

// LetterIndex returns the index of a letter by name, or -1.
func (c *Campaign) LetterIndex(name string) int {
	for i, n := range c.LetterNames {
		if n == name {
			return i
		}
	}
	return -1
}

// PreprocessStats mirrors the paper's §2.1 funnel from raw captures to the
// analyzable dataset.
type PreprocessStats struct {
	// RawPerDay is everything arriving at all letters, including junk
	// sources, IPv6, and private-source queries (the 51.9B figure).
	RawPerDay float64
	// InvalidPerDay and PTRPerDay are discarded (31B and 2B).
	InvalidPerDay, PTRPerDay float64
	// PrivatePerDay is dropped for private source space (7%).
	PrivatePerDay float64
	// V6PerDay is excluded for lack of v6 user data (12%).
	V6PerDay float64
	// RetainedPerDay is what the analysis keeps.
	RetainedPerDay float64
}

// Preprocess computes the filtering funnel over the campaign.
func (c *Campaign) Preprocess() PreprocessStats {
	var s PreprocessStats
	for _, r := range c.Rates {
		s.InvalidPerDay += r.RootInvalidPerDay
		s.PTRPerDay += r.RootPTRPerDay
		s.RetainedPerDay += r.RootValidPerDay
	}
	s.InvalidPerDay += c.JunkQueriesPerDay
	valid := s.RetainedPerDay
	s.PrivatePerDay = valid * PrivateShare
	s.V6PerDay = valid * V6Share
	s.RetainedPerDay = valid * (1 - PrivateShare - V6Share)
	s.RawPerDay = s.InvalidPerDay + s.PTRPerDay + valid
	obsFilterInvalid.Set(s.InvalidPerDay)
	obsFilterPTR.Set(s.PTRPerDay)
	obsFilterPrivate.Set(s.PrivatePerDay)
	obsFilterV6.Set(s.V6PerDay)
	obsFilterRetained.Set(s.RetainedPerDay)
	return s
}
