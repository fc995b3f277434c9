package topology

import (
	"math"
	"math/rand"
	"testing"

	"anycastctx/internal/geo"
)

func testRegions(t *testing.T) []geo.Region {
	t.Helper()
	return geo.GenerateRegions(geo.PaperRegionCounts, rand.New(rand.NewSource(42)))
}

func smallConfig() Config {
	return Config{Seed: 7, NumTier1: 6, NumTransit: 30, NumEyeball: 300}
}

func TestNewGraphCounts(t *testing.T) {
	g, err := New(smallConfig(), testRegions(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(g.Tier1s()); got != 6 {
		t.Errorf("tier1s = %d", got)
	}
	if got := len(g.Transits()); got != 30 {
		t.Errorf("transits = %d", got)
	}
	if got := len(g.Eyeballs()); got != 300 {
		t.Errorf("eyeballs = %d", got)
	}
	if g.Len() != 336 {
		t.Errorf("Len = %d", g.Len())
	}
}

func TestNewGraphNoRegions(t *testing.T) {
	if _, err := New(smallConfig(), nil); err == nil {
		t.Error("expected error for empty regions")
	}
}

func TestGraphDeterminism(t *testing.T) {
	regions := testRegions(t)
	g1, err := New(smallConfig(), regions)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := New(smallConfig(), regions)
	if err != nil {
		t.Fatal(err)
	}
	for _, asn := range g1.All() {
		a, b := g1.AS(asn), g2.AS(asn)
		if b == nil {
			t.Fatalf("AS%d missing from second graph", asn)
		}
		if a.Name != b.Name || a.Loc != b.Loc || a.UserWeight != b.UserWeight ||
			len(a.Providers) != len(b.Providers) {
			t.Fatalf("AS%d differs between identically seeded graphs", asn)
		}
	}
	// Implicit peering must also be deterministic.
	es := g1.Eyeballs()
	for i := 0; i < 50; i++ {
		a, b := es[i], es[len(es)-1-i]
		if g1.Peered(a, b) != g2.Peered(a, b) {
			t.Fatalf("Peered(%d,%d) differs between graphs", a, b)
		}
	}
}

func TestTier1Properties(t *testing.T) {
	g, err := New(smallConfig(), testRegions(t))
	if err != nil {
		t.Fatal(err)
	}
	t1s := g.Tier1s()
	for i, a := range t1s {
		as := g.AS(a)
		if as.Class != ClassTier1 {
			t.Errorf("AS%d class = %v", a, as.Class)
		}
		if len(as.Presence) < 6 {
			t.Errorf("tier1 %d has only %d presence points", a, len(as.Presence))
		}
		if len(as.Providers) != 0 {
			t.Errorf("tier1 %d has providers", a)
		}
		for _, b := range t1s[i+1:] {
			if !g.Peered(a, b) {
				t.Errorf("tier1s %d and %d not peered", a, b)
			}
		}
	}
	// Sibling pair shares an org.
	if g.AS(t1s[0]).Org != g.AS(t1s[1]).Org {
		t.Error("first two tier-1s should be siblings")
	}
}

func TestHierarchyInvariants(t *testing.T) {
	g, err := New(smallConfig(), testRegions(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, tn := range g.Transits() {
		tr := g.AS(tn)
		if tr.Class != ClassTransit {
			t.Fatalf("AS%d class = %v", tn, tr.Class)
		}
		if len(tr.Providers) == 0 {
			t.Errorf("transit %d has no providers", tn)
		}
		for _, p := range tr.Providers {
			if g.AS(p).Class != ClassTier1 {
				t.Errorf("transit %d provider %d is %v, want tier1", tn, p, g.AS(p).Class)
			}
		}
	}
	for _, en := range g.Eyeballs() {
		e := g.AS(en)
		if e.Class != ClassEyeball {
			t.Fatalf("AS%d class = %v", en, e.Class)
		}
		if len(e.Providers) == 0 {
			t.Errorf("eyeball %d has no providers", en)
		}
		if e.Region < 0 || e.Region >= len(g.Regions) {
			t.Errorf("eyeball %d region %d out of range", en, e.Region)
		}
		for _, p := range e.Providers {
			c := g.AS(p).Class
			if c != ClassTransit && c != ClassTier1 {
				t.Errorf("eyeball %d provider %d is %v", en, p, c)
			}
		}
	}
}

func TestUserWeightsSumToOne(t *testing.T) {
	g, err := New(smallConfig(), testRegions(t))
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, en := range g.Eyeballs() {
		w := g.AS(en).UserWeight
		if w < 0 {
			t.Errorf("eyeball %d negative weight", en)
		}
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("user weights sum to %v", sum)
	}
	for _, tn := range g.Transits() {
		if g.AS(tn).UserWeight != 0 {
			t.Errorf("transit %d has user weight", tn)
		}
	}
}

func TestPeeredSymmetricAndIrreflexive(t *testing.T) {
	g, err := New(smallConfig(), testRegions(t))
	if err != nil {
		t.Fatal(err)
	}
	es := g.Eyeballs()
	for i := 0; i < 100; i++ {
		a := es[i%len(es)]
		b := es[(i*7+3)%len(es)]
		if a == b {
			continue
		}
		if g.Peered(a, b) != g.Peered(b, a) {
			t.Fatalf("Peered not symmetric for %d,%d", a, b)
		}
	}
	if g.Peered(es[0], es[0]) {
		t.Error("AS peered with itself")
	}
	if g.Peered(es[0], ASN(999999)) {
		t.Error("peered with unknown AS")
	}
}

// refPeered is Peered before its PairUnit short-circuit: the co-presence
// probability first, then the pair's deviate. explicit is the test's own
// record of the graph's explicit edges, smaller ASN first.
func refPeered(g *Graph, explicit map[[2]ASN]bool, a, b ASN) bool {
	if a == b {
		return false
	}
	if explicit[[2]ASN{min(a, b), max(a, b)}] {
		return true
	}
	A, B := g.AS(a), g.AS(b)
	if A == nil || B == nil || A.Class == ClassTier1 || B.Class == ClassTier1 {
		return false
	}
	p := A.PeeringRichness * B.PeeringRichness
	_, d := B.NearestPresence(A.Loc)
	if A.Class != ClassEyeball && B.Class == ClassEyeball {
		_, d = A.NearestPresence(B.Loc)
	}
	switch {
	case d < 500:
	case d < 1500:
		p *= 0.6
	case d < 3000:
		p *= 0.25
	default:
		p *= 0.02
	}
	if p <= 0 {
		return false
	}
	return g.PairUnit(a, b) < p
}

func TestPeeredMatchesReferenceFormula(t *testing.T) {
	g, err := New(smallConfig(), testRegions(t))
	if err != nil {
		t.Fatal(err)
	}
	// New meshes the tier-1s; every other explicit edge is one of the
	// Peer calls below, repeats and an unknown AS included.
	explicit := map[[2]ASN]bool{}
	for i, a := range g.Tier1s() {
		for _, b := range g.Tier1s()[i+1:] {
			explicit[[2]ASN{min(a, b), max(a, b)}] = true
		}
	}
	peer := func(a, b ASN) {
		g.Peer(a, b)
		if a != b && g.AS(a) != nil && g.AS(b) != nil {
			explicit[[2]ASN{min(a, b), max(a, b)}] = true
		}
	}
	host := g.AddHostAS("host", []geo.Coord{{Lat: 48.86, Lon: 2.35}}, []ASN{g.Transits()[0]}, 0.9)
	g.AddHostAS("host-zero", []geo.Coord{{Lat: -33.9, Lon: 151.2}}, []ASN{g.Transits()[1]}, 0)
	cdn := g.AddCDNAS("cdn", []geo.Coord{{Lat: 40.71, Lon: -74.01}, {Lat: 51.51, Lon: -0.13}, {Lat: 35.68, Lon: 139.69}})
	for _, e := range g.Eyeballs()[:40] {
		peer(e, cdn.ASN)
	}
	peer(cdn.ASN, g.Eyeballs()[0])
	peer(g.Eyeballs()[50], host.ASN)
	peer(host.ASN, cdn.ASN)
	peer(g.Transits()[2], g.Eyeballs()[60])
	peer(host.ASN, host.ASN)
	peer(host.ASN, ASN(999999))
	// A repeated edge, a self-edge and an unknown AS add no entries.
	if len(host.peers) != 2 || len(cdn.peers) != 41 {
		t.Fatalf("adjacency lists hold %d and %d edges, want 2 and 41", len(host.peers), len(cdn.peers))
	}
	peered := 0
	all := g.All()
	for _, a := range all {
		for _, b := range all {
			if got, want := g.HasExplicitPeering(a, b), explicit[[2]ASN{min(a, b), max(a, b)}]; got != want {
				t.Fatalf("HasExplicitPeering(%d, %d) = %v, recorded %v", a, b, got, want)
			}
			got, want := g.Peered(a, b), refPeered(g, explicit, a, b)
			if got != want {
				t.Fatalf("Peered(%d, %d) = %v, reference %v", a, b, got, want)
			}
			if got {
				peered++
			}
		}
	}
	if peered == 0 {
		t.Fatal("no pair peered; the comparison is vacuous")
	}
}

func TestAddHostAS(t *testing.T) {
	g, err := New(smallConfig(), testRegions(t))
	if err != nil {
		t.Fatal(err)
	}
	loc := geo.Coord{Lat: 48.86, Lon: 2.35}
	up := g.Transits()[0]
	h := g.AddHostAS("host-paris", []geo.Coord{loc}, []ASN{up, up}, 0.5)
	if h.Class != ClassHost {
		t.Errorf("class = %v", h.Class)
	}
	if len(h.Providers) != 1 {
		t.Errorf("providers not deduped: %v", h.Providers)
	}
	if g.AS(h.ASN) != h {
		t.Error("host not registered")
	}
	if h.Region < 0 {
		t.Error("host region not inferred")
	}
	if !g.Connected(up, h.ASN) {
		t.Error("host should be connected to its provider")
	}
}

// TestASLookupBounds: every AS is found under its own number, and
// numbers outside the dense range the graph handed out find nothing.
func TestASLookupBounds(t *testing.T) {
	g, err := New(smallConfig(), testRegions(t))
	if err != nil {
		t.Fatal(err)
	}
	h := g.AddHostAS("host", []geo.Coord{{Lat: 1, Lon: 1}}, []ASN{g.Transits()[0]}, 0.1)
	all := g.All()
	for i, n := range all {
		if a := g.AS(n); a == nil || a.ASN != n {
			t.Fatalf("All()[%d] = AS%d resolves to %+v", i, n, a)
		}
		if i > 0 && n != all[i-1]+1 {
			t.Fatalf("ASNs not dense: AS%d follows AS%d", n, all[i-1])
		}
	}
	if all[len(all)-1] != h.ASN {
		t.Errorf("last ASN %d, newest host AS%d", all[len(all)-1], h.ASN)
	}
	for _, n := range []ASN{math.MinInt32, -1, 0, all[0] - 1, h.ASN + 1, math.MaxInt32} {
		if a := g.AS(n); a != nil {
			t.Errorf("AS(%d) = AS%d, want nil", n, a.ASN)
		}
	}
}

func TestAddCDNAS(t *testing.T) {
	g, err := New(smallConfig(), testRegions(t))
	if err != nil {
		t.Fatal(err)
	}
	pops := []geo.Coord{{Lat: 40.71, Lon: -74.01}, {Lat: 51.51, Lon: -0.13}}
	cdn := g.AddCDNAS("cdn", pops)
	if cdn.Class != ClassCDN {
		t.Errorf("class = %v", cdn.Class)
	}
	if len(cdn.Presence) != 2 {
		t.Errorf("presence = %d", len(cdn.Presence))
	}
	if len(cdn.Providers) == 0 {
		t.Error("CDN should have tier-1 upstreams")
	}
	// Explicit peering works.
	e := g.Eyeballs()[0]
	g.Peer(e, cdn.ASN)
	if !g.Peered(e, cdn.ASN) || !g.HasExplicitPeering(cdn.ASN, e) {
		t.Error("explicit peering not recorded")
	}
}

func TestConnected(t *testing.T) {
	g, err := New(smallConfig(), testRegions(t))
	if err != nil {
		t.Fatal(err)
	}
	tr := g.AS(g.Transits()[0])
	// A transit is connected to its tier-1 providers' customers? No — test
	// the definition: customer link means Connected(provider, customer).
	if !g.Connected(tr.Providers[0], tr.ASN) {
		t.Error("tier-1 should be connected to its transit customer")
	}
	if g.Connected(tr.ASN, ASN(424242)) {
		t.Error("connected to unknown AS")
	}
}

func TestNearestPresence(t *testing.T) {
	g, err := New(smallConfig(), testRegions(t))
	if err != nil {
		t.Fatal(err)
	}
	as := g.AddHostAS("host", []geo.Coord{{Lat: 0, Lon: 0}, {Lat: 50, Lon: 50}}, []ASN{g.Transits()[0]}, 0.5)
	c, d := as.NearestPresence(geo.Coord{Lat: 49, Lon: 49})
	if c != (geo.Coord{Lat: 50, Lon: 50}) {
		t.Errorf("nearest = %v", c)
	}
	if d <= 0 || d > 300 {
		t.Errorf("distance = %v", d)
	}
}

func TestPairUnitRange(t *testing.T) {
	g, err := New(smallConfig(), testRegions(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		u := g.PairUnit(ASN(i), ASN(i*3+1))
		if u < 0 || u >= 1 {
			t.Fatalf("PairUnit out of range: %v", u)
		}
	}
	if g.PairUnit(1, 2) != g.PairUnit(2, 1) {
		t.Error("PairUnit not symmetric")
	}
}

func TestClassString(t *testing.T) {
	if ClassTier1.String() != "tier1" || ClassCDN.String() != "cdn" {
		t.Error("class names wrong")
	}
	if Class(77).String() != "Class(77)" {
		t.Error("unknown class string wrong")
	}
}

func TestEyeballsHaveGeographicProviders(t *testing.T) {
	// The majority of eyeballs should buy from a transit with presence
	// within a couple thousand km — providers are regional.
	g, err := New(smallConfig(), testRegions(t))
	if err != nil {
		t.Fatal(err)
	}
	near := 0
	total := 0
	for _, en := range g.Eyeballs() {
		e := g.AS(en)
		total++
		for _, p := range e.Providers {
			if _, d := g.AS(p).NearestPresence(e.Loc); d < 2500 {
				near++
				break
			}
		}
	}
	if frac := float64(near) / float64(total); frac < 0.7 {
		t.Errorf("only %.2f of eyeballs have a nearby provider", frac)
	}
}
