// Package users models who is behind the DNS queries: the ground-truth
// user population of each eyeball AS, the recursive resolvers (as /24s with
// individual resolver IPs) serving those users, and the two independently
// derived user-count datasets the paper amortizes queries over —
// Microsoft-style per-/24 counts (NAT-undercounted, partial coverage) and
// APNIC-style per-AS estimates (ad-based, country-normalized noise). §2.1.
package users

import (
	"fmt"
	"sort"

	"anycastctx/internal/geo"
	"anycastctx/internal/ipaddr"
	"anycastctx/internal/par"
	"anycastctx/internal/rng"
	"anycastctx/internal/topology"
)

// Recursive is one recursive-resolver /24: the paper's unit of join between
// DITL query volumes and CDN user counts. A /24 may contain several
// colocated resolver IPs (§2.1, Appendix B.2).
type Recursive struct {
	// Key identifies the /24.
	Key ipaddr.Slash24Key
	// ASN is the hosting AS.
	ASN topology.ASN
	// Loc is the resolver's physical location.
	Loc geo.Coord
	// Users is the ground-truth number of users this /24's resolvers serve.
	Users float64
	// IPs are the active resolver addresses within the /24.
	IPs []ipaddr.Addr
	// Public marks a public-DNS-service resolver, whose users live in many
	// other ASes (breaking the users-in-same-AS assumption, §2.1).
	Public bool
}

// Population calibration that every world shares.
const (
	// numPublicServices is how many public DNS operators exist.
	numPublicServices = 3
	// publicResolverShare is the mean fraction of each AS's users who use
	// a public DNS service instead of their ISP resolver.
	publicResolverShare float64 = 0.12
	// maxResolverIPs bounds the number of active resolver IPs per /24.
	maxResolverIPs = 5
)

// Population is the ground truth: every recursive, with its AS and
// location, and the total user count.
type Population struct {
	TotalUsers float64
	Recursives []Recursive

	// Pool is the address space left after the population's own blocks;
	// ditl.Assemble draws junk traffic sources from a copy of it.
	Pool *ipaddr.Pool
	// PublicASNs lists the public DNS services' ASes.
	PublicASNs []topology.ASN

	byKey map[ipaddr.Slash24Key]int
}

// AddPublicDNS adds the public DNS services' host ASes to g, one at each
// of the biggest metros, and returns their ASNs for Build.
func AddPublicDNS(g *topology.Graph) []topology.ASN {
	anchors := geo.Anchors()
	asns := make([]topology.ASN, numPublicServices)
	for i := range asns {
		a := anchors[i%len(anchors)]
		asns[i] = g.AddHostAS(fmt.Sprintf("public-dns-%d", i), []geo.Coord{a.Coord}, publicUpstreams(g, i), 0.6).ASN
	}
	return asns
}

// Build constructs the population of totalUsers users on g, whose public
// DNS services are the ASes AddPublicDNS returned: allocates address
// space, places 1–4 recursive /24s per eyeball AS (more for bigger ASes)
// and two per public service, and splits users across them. It does not
// modify g.
//
// Every random quantity is drawn from a splittable stream keyed by the
// owning AS, so the draw phase runs under par.Do; the address-pool
// allocation and the /24 index are then filled in a serial pass over the
// pre-computed draws, keeping every allocation and map insertion in
// deterministic AS order.
func Build(g *topology.Graph, public []topology.ASN, totalUsers float64, seed int64) (*Population, error) {
	p := &Population{
		TotalUsers: totalUsers,
		Pool:       ipaddr.NewPool(),
		PublicASNs: public,
		byKey:      make(map[ipaddr.Slash24Key]int),
	}

	publicRecs := make([]int, 0, len(public)*2)
	for i, asn := range public {
		host := g.AS(asn)
		if host == nil {
			return nil, fmt.Errorf("users: public DNS AS%d not in graph", asn)
		}
		blocks, err := p.Pool.AllocSlash24s(2)
		if err != nil {
			return nil, fmt.Errorf("users: %w", err)
		}
		st := rng.Split(seed, rng.PhasePopServices, uint64(i))
		for _, b := range blocks {
			idx, err := p.addRecursive(b, asn, host.Loc, 0, true, 1+st.Intn(maxResolverIPs))
			if err != nil {
				return nil, err
			}
			publicRecs = append(publicRecs, idx)
		}
	}

	// ISP recursives: draw everything per-AS in parallel, then allocate
	// and insert serially in eyeball order.
	eyeballs := g.Eyeballs()
	type recDraw struct {
		loc  geo.Coord
		nIPs int
	}
	type asDraw struct {
		pubShare float64
		nRec     int
		recs     [4]recDraw
	}
	draws := make([]asDraw, len(eyeballs))
	par.Do(len(eyeballs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			asn := eyeballs[i]
			as := g.AS(asn)
			asUsers := as.UserWeight * totalUsers
			st := rng.Split(seed, rng.PhasePopulation, uint64(asn))
			d := asDraw{pubShare: publicResolverShare * (0.5 + st.Float64()), nRec: 1}
			if d.pubShare > 0.9 {
				d.pubShare = 0.9
			}
			switch {
			case asUsers > 5e6:
				d.nRec = 4
			case asUsers > 1e6:
				d.nRec = 3
			case asUsers > 2e5:
				d.nRec = 2
			}
			for k := 0; k < d.nRec; k++ {
				d.recs[k] = recDraw{
					loc:  geo.Jitter(as.Loc, 80, st.Float64(), st.Float64()),
					nIPs: 1 + st.Intn(maxResolverIPs),
				}
			}
			draws[i] = d
		}
	})
	var publicUsers float64
	for i, asn := range eyeballs {
		as := g.AS(asn)
		asUsers := as.UserWeight * totalUsers
		d := draws[i]
		publicUsers += asUsers * d.pubShare
		ownUsers := asUsers * (1 - d.pubShare)

		blocks, err := p.Pool.AllocSlash24s(d.nRec)
		if err != nil {
			return nil, fmt.Errorf("users: %w", err)
		}
		// Zipf split of the AS's users over its recursives.
		var denom float64
		for k := 0; k < d.nRec; k++ {
			denom += 1 / float64(k+1)
		}
		for k, b := range blocks {
			share := (1 / float64(k+1)) / denom
			if _, err := p.addRecursive(b, asn, d.recs[k].loc, ownUsers*share, false, d.recs[k].nIPs); err != nil {
				return nil, err
			}
		}
	}

	// Spread public-DNS users over the public recursives.
	if len(publicRecs) > 0 {
		per := publicUsers / float64(len(publicRecs))
		for _, idx := range publicRecs {
			p.Recursives[idx].Users = per
		}
	}
	return p, nil
}

func publicUpstreams(g *topology.Graph, i int) []topology.ASN {
	t1s := g.Tier1s()
	return []topology.ASN{t1s[i%len(t1s)], t1s[(i+1)%len(t1s)]}
}

func (p *Population) addRecursive(b ipaddr.Prefix, asn topology.ASN, loc geo.Coord,
	users float64, public bool, nIPs int) (int, error) {
	if b.Bits != 24 {
		return 0, fmt.Errorf("users: recursive prefix %s is not a /24", b)
	}
	ips := make([]ipaddr.Addr, nIPs)
	for i := range ips {
		ips[i] = b.Nth(uint64(1 + i)) // .1, .2, ...
	}
	rec := Recursive{
		Key:    ipaddr.Key24(b.Addr),
		ASN:    asn,
		Loc:    loc,
		Users:  users,
		IPs:    ips,
		Public: public,
	}
	p.byKey[rec.Key] = len(p.Recursives)
	p.Recursives = append(p.Recursives, rec)
	return len(p.Recursives) - 1, nil
}

// ByKey returns the recursive for a /24 key.
func (p *Population) ByKey(k ipaddr.Slash24Key) (*Recursive, bool) {
	i, ok := p.byKey[k]
	if !ok {
		return nil, false
	}
	return &p.Recursives[i], true
}

// UsersServed sums ground-truth users over all recursives.
func (p *Population) UsersServed() float64 {
	var s float64
	for _, r := range p.Recursives {
		s += r.Users
	}
	return s
}

// CDNCounts is the Microsoft-style user-count dataset: unique client IPs
// observed requesting instrumented DNS records, attributed to resolver IPs
// (§2.1). It systematically undercounts (NAT) and misses some recursives.
type CDNCounts struct {
	// ByIP maps individual resolver IPs to observed user counts.
	ByIP map[ipaddr.Addr]float64
	// By24 aggregates ByIP at the /24 level (user IPs deduplicated per /24
	// before counting, per the paper's footnote 1).
	By24 map[ipaddr.Slash24Key]float64
}

// Calibration of the CDN dataset's observation process.
const (
	// ipCoverage is the probability an individual resolver IP is observed
	// (Microsoft sees the resolvers its users actually use, not all of
	// them; with several IPs per /24 this yields high /24-level coverage
	// but low exact-IP coverage, the Table 4 effect).
	ipCoverage float64 = 0.55
	// natFactorMin and natFactorMax bound the undercount multiplier.
	natFactorMin float64 = 0.55
	natFactorMax float64 = 0.95
)

// BuildCDNCounts derives the CDN dataset from ground truth. Observation
// draws are per-recursive streams under par.Do; the output maps are
// filled in a serial index-order pass.
func BuildCDNCounts(p *Population, seed int64) *CDNCounts {
	out := &CDNCounts{
		ByIP: make(map[ipaddr.Addr]float64),
		By24: make(map[ipaddr.Slash24Key]float64),
	}
	type row struct {
		perIP []float64 // 0 = unobserved
		total float64
	}
	rows := make([]row, len(p.Recursives))
	par.Do(len(p.Recursives), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			rec := &p.Recursives[i]
			st := rng.Split(seed, rng.PhaseCDNCounts, uint64(i))
			perIP := rec.Users / float64(len(rec.IPs))
			nat := natFactorMin + st.Float64()*(natFactorMax-natFactorMin)
			r := row{perIP: make([]float64, len(rec.IPs))}
			for k := range rec.IPs {
				if st.Float64() >= ipCoverage {
					continue
				}
				c := perIP * nat
				if c < 1 {
					continue
				}
				r.perIP[k] = c
				r.total += c
			}
			rows[i] = r
		}
	})
	for i := range p.Recursives {
		rec := &p.Recursives[i]
		for k, ip := range rec.IPs {
			if c := rows[i].perIP[k]; c > 0 {
				out.ByIP[ip] = c
			}
		}
		if rows[i].total >= 1 {
			out.By24[rec.Key] = rows[i].total
		}
	}
	return out
}

// APNICCounts is the APNIC-style per-AS population estimate: derived from
// ad-delivery sampling normalized by country Internet population, so it has
// multiplicative noise and attributes public-DNS users to their home AS.
type APNICCounts struct {
	ByASN map[topology.ASN]float64
}

// BuildAPNICCounts derives the APNIC dataset from ground truth on g.
// Per-AS noise draws come from streams keyed by ASN under par.Do; the
// map is filled serially in eyeball order.
func BuildAPNICCounts(g *topology.Graph, p *Population, seed int64) *APNICCounts {
	out := &APNICCounts{ByASN: make(map[topology.ASN]float64)}
	eyeballs := g.Eyeballs()
	ests := make([]float64, len(eyeballs)) // 0 = unobserved
	par.Do(len(eyeballs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			as := g.AS(eyeballs[i])
			truth := as.UserWeight * p.TotalUsers
			if truth < 1 {
				continue
			}
			st := rng.Split(seed, rng.PhaseAPNIC, uint64(eyeballs[i]))
			noise := 0.6 + st.Float64() // U(0.6, 1.6)
			// Ad sampling misses a small share of tiny networks entirely.
			if truth < 5000 && st.Float64() < 0.3 {
				continue
			}
			ests[i] = truth * noise
		}
	})
	for i, asn := range eyeballs {
		if ests[i] > 0 {
			out.ByASN[asn] = ests[i]
		}
	}
	return out
}

// WeightedUsers returns the total users in the APNIC dataset. The fold
// visits ASes in sorted order: float addition is not associative, so a
// map-iteration-order sum varies in its low bits from run to run,
// breaking the equal-configs-build-equal-worlds contract (caught by the
// seed-permutation metamorphic test in internal/check).
func (a *APNICCounts) WeightedUsers() float64 {
	asns := make([]topology.ASN, 0, len(a.ByASN))
	for asn := range a.ByASN {
		asns = append(asns, asn)
	}
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
	var s float64
	for _, asn := range asns {
		s += a.ByASN[asn]
	}
	return s
}

// TotalBy24 returns the total users in the CDN dataset at /24
// granularity, folding in sorted key order for the same determinism
// reason as WeightedUsers.
func (c *CDNCounts) TotalBy24() float64 {
	keys := make([]ipaddr.Slash24Key, 0, len(c.By24))
	for k := range c.By24 {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var s float64
	for _, k := range keys {
		s += c.By24[k]
	}
	return s
}
