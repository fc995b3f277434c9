package ditl

import (
	"fmt"

	"anycastctx/internal/anycastnet"
	"anycastctx/internal/artifact"
	"anycastctx/internal/bgp"
	"anycastctx/internal/dnssim"
	"anycastctx/internal/ipaddr"
	"anycastctx/internal/latency"
	"anycastctx/internal/users"
)

// EncodeArtifact serializes the route table — letter names, source
// count, the dense index, the base RTTs and then one route per RTT —
// into a deterministic payload. Source ASes are not encoded: they follow
// from the population, which DecodeRouteTable takes. Floats are raw
// IEEE-754 bits, so decode→encode is byte-identical.
func (t *RouteTable) EncodeArtifact() []byte {
	w := artifact.NewWriter(64 + len(t.ix.entry)*4 + len(t.routes)*48)
	w.U64(uint64(len(t.letters)))
	for _, l := range t.letters {
		w.Str(l.Name)
	}
	w.U64(uint64(t.ix.nSrc))
	w.U32s(t.ix.entry)
	w.F64s(t.rtt)
	for i := range t.routes {
		bgp.AppendRoute(w, t.routes[i])
	}
	return w.Bytes()
}

// DecodeRouteTable rebuilds a route table from an EncodeArtifact payload
// for letters and pop. It checks the letter names, the source count and
// that every index entry names a route, so a stale or mismatched
// artifact fails instead of yielding a wrong table.
func DecodeRouteTable(blob []byte, letters []*anycastnet.Deployment, pop *users.Population) (*RouteTable, error) {
	r := artifact.NewReader(blob)
	if nl := r.U64(); r.Err() == nil && nl != uint64(len(letters)) {
		return nil, fmt.Errorf("ditl: decode routes: artifact has %d letters, world has %d", nl, len(letters))
	}
	t := &RouteTable{letters: letters, pop: pop, dist: newSiteDistances(len(letters))}
	for i, l := range letters {
		if name := r.Str(); r.Err() == nil && name != l.Name {
			return nil, fmt.Errorf("ditl: decode routes: artifact letter %d is %q, world has %q", i, name, l.Name)
		}
	}
	srcs, pos := sourcePositions(pop)
	if ns := r.U64(); r.Err() == nil && ns != uint64(len(srcs)) {
		return nil, fmt.Errorf("ditl: decode routes: artifact has %d sources, population has %d", ns, len(srcs))
	}
	t.srcs = srcs
	t.ix = routeIndex{entry: r.U32s(), pos: pos, nSrc: len(srcs)}
	t.rtt = r.F64s()
	t.routes = make([]bgp.Route, len(t.rtt))
	for i := range t.routes {
		t.routes[i] = bgp.ReadRoute(r)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	if len(t.ix.entry) != len(letters)*len(srcs) {
		return nil, fmt.Errorf("ditl: decode routes: index has %d cells, want %d letters x %d sources",
			len(t.ix.entry), len(letters), len(srcs))
	}
	for k, e := range t.ix.entry {
		if e != noRoute && int(e) >= len(t.routes) {
			return nil, fmt.Errorf("ditl: decode routes: cell %d names route %d of %d", k, e, len(t.routes))
		}
	}
	return t, nil
}

// EncodeArtifact serializes the campaign's owned data — the assignment
// columns, egress store, and junk sources — into a deterministic
// payload. The route table and the pointed-to inputs (letters,
// population, zone, rates, model, config) are NOT encoded: they are
// separate stages keyed upstream, and DecodeCampaignArtifact reattaches
// them. Floats are raw IEEE-754 bits, so NaN cells (unmeasurable TCP
// medians) round-trip exactly and decode→encode is byte-identical.
func (c *Campaign) EncodeArtifact() []byte {
	w := artifact.NewWriter(64 + len(c.altSite)*28 + len(c.egressFlat)*4)
	w.U32s(c.altSite)
	w.F64s(c.altFrac)
	w.F64s(c.tcpMedian)
	w.F64s(c.letterWeight)
	w.U64(uint64(len(c.egressFlat)))
	for _, a := range c.egressFlat {
		w.U32(uint32(a))
	}
	w.U32s(c.egressOff)
	w.U64(uint64(len(c.JunkSources)))
	for _, a := range c.JunkSources {
		w.U32(uint32(a))
	}
	w.F64(c.JunkQueriesPerDay)
	return w.Bytes()
}

// DecodeCampaignArtifact rebuilds a campaign from an EncodeArtifact
// payload plus route table t and the live upstream inputs it references.
// It rejects a table built for other deployments or another population,
// and validates the payload's column lengths against them, so loading a
// stale or mismatched artifact fails loudly instead of producing a
// silently wrong campaign. The caller sets Faults afterwards (it never
// changes campaign bytes). Decoding reads no address pool: the junk /24
// blocks Assemble drew are baked into JunkSources.
func DecodeCampaignArtifact(blob []byte, t *RouteTable, letters []*anycastnet.Deployment, pop *users.Population,
	zone *dnssim.Zone, rates []dnssim.Rates, model *latency.Model, cfg Config) (*Campaign, error) {
	if err := t.fits(letters, pop); err != nil {
		return nil, err
	}
	r := artifact.NewReader(blob)
	c := &Campaign{
		Letters: letters,
		Pop:     pop,
		Zone:    zone,
		Rates:   rates,
		Model:   model,
		Cfg:     cfg.withDefaults(),
		numRecs: len(pop.Recursives),
		table:   t,
	}
	for _, l := range letters {
		c.LetterNames = append(c.LetterNames, l.Name)
	}
	c.altSite = r.U32s()
	c.altFrac = r.F64s()
	c.tcpMedian = r.F64s()
	c.letterWeight = r.F64s()
	c.egressFlat = addrs(r.U32s())
	c.egressOff = r.U32s()
	c.JunkSources = addrs(r.U32s())
	c.JunkQueriesPerDay = r.F64()
	if err := r.Done(); err != nil {
		return nil, err
	}
	cols := len(letters) * c.numRecs
	if len(c.altSite) != cols || len(c.altFrac) != cols || len(c.tcpMedian) != cols || len(c.letterWeight) != cols {
		return nil, fmt.Errorf("ditl: decode: column length mismatch (want %d cells)", cols)
	}
	if len(c.egressOff) != c.numRecs+1 {
		return nil, fmt.Errorf("ditl: decode: egress offsets length %d, want %d", len(c.egressOff), c.numRecs+1)
	}
	if c.numRecs > 0 && int(c.egressOff[c.numRecs]) != len(c.egressFlat) {
		return nil, fmt.Errorf("ditl: decode: egress store length %d, offsets end at %d", len(c.egressFlat), c.egressOff[c.numRecs])
	}
	obsCampaigns.Inc()
	obsAssignments.Add(uint64(cols))
	obsJunk24s.Add(uint64(len(c.JunkSources)))
	return c, nil
}

// addrs converts a decoded U32s list to addresses: EncodeArtifact
// writes each address list as a length and one uint32 per address, the
// U32s layout, so the reader checks the length against the payload.
func addrs(vs []uint32) []ipaddr.Addr {
	out := make([]ipaddr.Addr, len(vs))
	for i, v := range vs {
		out[i] = ipaddr.Addr(v)
	}
	return out
}

// EncodeJoin serializes a DITL∩CDN join deterministically.
func EncodeJoin(j *Join) []byte {
	w := artifact.NewWriter(16 + len(j.Rows)*24)
	w.Bool(j.ByIP)
	w.U64(uint64(len(j.Rows)))
	for i := range j.Rows {
		row := &j.Rows[i]
		w.I64(int64(row.RecIdx))
		w.U32(uint32(row.Key))
		w.F64(row.QueriesPerDay)
		w.F64(row.Users)
	}
	return w.Bytes()
}

// DecodeJoin rebuilds a join from an EncodeJoin payload.
func DecodeJoin(blob []byte) (*Join, error) {
	r := artifact.NewReader(blob)
	j := &Join{ByIP: r.Bool()}
	n := int(r.U64())
	if err := r.Err(); err != nil {
		return nil, err
	}
	if max := (len(blob) - r.Off()) / 24; n > max {
		return nil, fmt.Errorf("ditl: decode join: row count %d exceeds payload", n)
	}
	if n > 0 {
		j.Rows = make([]JoinedRow, n)
	}
	for i := range j.Rows {
		j.Rows[i] = JoinedRow{
			RecIdx:        int(r.I64()),
			Key:           ipaddr.Slash24Key(r.U32()),
			QueriesPerDay: r.F64(),
			Users:         r.F64(),
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	obsJoins.Inc()
	obsJoinRows.Add(uint64(len(j.Rows)))
	for _, row := range j.Rows {
		obsJoinRowUsers.Observe(row.Users)
	}
	return j, nil
}
