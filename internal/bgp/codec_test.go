package bgp

import (
	"bytes"
	"strings"
	"testing"

	"anycastctx/internal/artifact"
	"anycastctx/internal/topology"
)

// encodeState resolves srcs on a fresh resolver for sites and returns
// its AppendState payload.
func encodeState(t *testing.T, g *topology.Graph, sites []Site, srcs []topology.ASN) []byte {
	t.Helper()
	r, err := NewResolver(g, sites)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range srcs {
		r.Route(s)
	}
	w := artifact.NewWriter(0)
	if err := r.AppendState(w, srcs); err != nil {
		t.Fatal(err)
	}
	return w.Bytes()
}

// TestStateRoundTripPerSiteTables: the routes artifact keeps one transit
// distance per site, even where several sites share a host, and a
// restored resolver answers and re-encodes exactly as the one that
// wrote it.
func TestStateRoundTripPerSiteTables(t *testing.T) {
	c := sharedPartnerCase(t)
	g, sites := c.g, c.sites[0]
	srcs := g.Eyeballs()
	payload := encodeState(t, g, sites, srcs)

	rd := artifact.NewReader(payload)
	if n := int(rd.U32()); n != len(sites) {
		t.Fatalf("artifact has %d sites, want %d", n, len(sites))
	}
	nASN := int(rd.U64())
	if want := len(g.Transits()) + len(g.Tier1s()); nASN != want {
		t.Fatalf("artifact has %d transit rows, want %d", nASN, want)
	}

	restored, err := NewResolver(g, sites)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreState(artifact.NewReader(payload)); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewResolver(g, sites)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range srcs {
		a, aok := restored.Route(s)
		b, bok := fresh.Route(s)
		if aok != bok || !routesSame(a, b) {
			t.Fatalf("AS%d: restored (%+v, %v), fresh (%+v, %v)", s, a, aok, b, bok)
		}
	}
	w := artifact.NewWriter(0)
	if err := restored.AppendState(w, srcs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.Bytes(), payload) {
		t.Error("restored resolver re-encodes different bytes")
	}
}

// TestRestoreStateRejectsSplitHost: a table that gives two sites of one
// host different distances cannot fold back to one distance per host.
func TestRestoreStateRejectsSplitHost(t *testing.T) {
	c := sharedPartnerCase(t)
	g, sites := c.g, c.sites[0]
	payload := encodeState(t, g, sites, g.Eyeballs()[:10])
	if sites[0].Host != sites[1].Host {
		t.Fatal("sites 0 and 1 should share the partner host")
	}
	// Site 1's distance in the first transit row sits after the site
	// count (4 bytes), the row count (8) and the row's ASN (4), one byte
	// past site 0's.
	bad := append([]byte(nil), payload...)
	bad[4+8+4+1] ^= 1

	r, err := NewResolver(g, sites)
	if err != nil {
		t.Fatal(err)
	}
	err = r.RestoreState(artifact.NewReader(bad))
	if err == nil || !strings.Contains(err.Error(), "hops") {
		t.Fatalf("RestoreState of a split host: err = %v", err)
	}
}
