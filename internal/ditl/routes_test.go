package ditl

import (
	"bytes"
	"context"
	"encoding/binary"
	"strings"
	"testing"

	"anycastctx/internal/anycastnet"
)

// TestRouteTableRoundTrip: a decoded route table re-encodes to the bytes
// it was decoded from, and reads the same entry for every cell.
func TestRouteTableRoundTrip(t *testing.T) {
	f := buildFixture(t)
	want := f.camp.table
	blob := want.EncodeArtifact()
	got, err := DecodeRouteTable(blob, f.letters, f.pop)
	if err != nil {
		t.Fatal(err)
	}
	if again := got.EncodeArtifact(); !bytes.Equal(again, blob) {
		t.Fatalf("decode→encode gives %d bytes, want the %d decoded", len(again), len(blob))
	}
	for li := range f.letters {
		for ri := range f.pop.Recursives {
			if g, w := got.ix.at(li, ri), want.ix.at(li, ri); g != w {
				t.Fatalf("letter %d recursive %d: entry %d, want %d", li, ri, g, w)
			}
		}
	}
	for i, rt := range want.routes {
		if !got.routes[i].Equal(rt) || got.rtt[i] != want.rtt[i] {
			t.Fatalf("entry %d: route %+v at %v, want %+v at %v", i, got.routes[i], got.rtt[i], rt, want.rtt[i])
		}
	}
}

// TestDecodeRouteTableRejects: every payload or pairing that is not the
// table of these letters and this population fails to decode.
func TestDecodeRouteTableRejects(t *testing.T) {
	f := buildFixture(t)
	tb := f.camp.table
	blob := tb.EncodeArtifact()

	renamed := append([]*anycastnet.Deployment(nil), f.letters...)
	renamed[1] = anycastnet.Renamed(f.letters[1], "X")

	// The source count follows the letter count and the names.
	srcOff := 8
	for _, l := range tb.letters {
		srcOff += 4 + len(l.Name)
	}
	sources := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint64(sources[srcOff:], uint64(tb.ix.nSrc+1))

	past := *tb
	past.ix.entry = append([]uint32(nil), tb.ix.entry...)
	for k, e := range past.ix.entry {
		if e != noRoute {
			past.ix.entry[k] = uint32(len(tb.routes))
			break
		}
	}

	for _, tc := range []struct {
		name    string
		blob    []byte
		letters []*anycastnet.Deployment
		want    string
	}{
		{"wrong letter names", blob, renamed, `is "C"`},
		{"wrong letter count", blob, f.letters[:2], "3 letters, world has 2"},
		{"wrong source count", sources, f.letters, "sources"},
		{"entry past the table", past.EncodeArtifact(), f.letters, "names route"},
		{"truncated payload", blob[:len(blob)-1], f.letters, ""},
		{"trailing bytes", append(append([]byte(nil), blob...), 0), f.letters, ""},
	} {
		_, err := DecodeRouteTable(tc.blob, tc.letters, f.pop)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestCampaignRejectsForeignTable: a campaign is neither assembled nor
// decoded on a route table built for another letter set or another
// population, even one with the same letter names or the same size,
// since the campaign reads its site distances from the table.
func TestCampaignRejectsForeignTable(t *testing.T) {
	f := buildFixture(t)
	ctx := context.Background()
	c := f.camp
	fewer, err := BuildRouteTable(ctx, f.letters[:2], f.pop, c.Model)
	if err != nil {
		t.Fatal(err)
	}
	short := *f.pop
	short.Recursives = short.Recursives[:len(short.Recursives)-1]
	smaller, err := BuildRouteTable(ctx, f.letters, &short, c.Model)
	if err != nil {
		t.Fatal(err)
	}
	redeployed, err := BuildRouteTable(ctx, freshLetters(t, f), f.pop, c.Model)
	if err != nil {
		t.Fatal(err)
	}
	twin := *f.pop
	copied, err := BuildRouteTable(ctx, f.letters, &twin, c.Model)
	if err != nil {
		t.Fatal(err)
	}
	blob := c.EncodeArtifact()
	for _, tc := range []struct {
		name  string
		table *RouteTable
		want  string
	}{
		{"another letter count", fewer, "2 letters, campaign has 3"},
		{"another recursive count", smaller, "recursives"},
		{"other deployments of the same letters", redeployed, `not the campaign's "B" deployment`},
		{"a copy of the population", copied, "another population"},
	} {
		_, err := DecodeCampaignArtifact(blob, tc.table, f.letters, f.pop, c.Zone, f.rates, c.Model, c.Cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("decode on %s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
		_, err = Assemble(ctx, tc.table, f.letters, f.pop, c.Zone, f.rates, c.Model, c.Cfg, 5)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("assemble on %s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestDecodeCampaignRejectsCountPastPayload: an egress address count
// larger than the payload is a decode error, not a failed allocation.
func TestDecodeCampaignRejectsCountPastPayload(t *testing.T) {
	f := buildFixture(t)
	c := f.camp
	blob := c.EncodeArtifact()
	// The egress count follows the four length-prefixed columns.
	cells := len(c.altSite)
	bad := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint64(bad[8+4*cells+3*(8+8*cells):], 1<<62)
	if _, err := DecodeCampaignArtifact(bad, c.table, f.letters, f.pop, c.Zone, f.rates, c.Model, c.Cfg); err == nil {
		t.Fatal("decoded an egress count past the payload")
	}
	if _, err := DecodeCampaignArtifact(blob, c.table, f.letters, f.pop, c.Zone, f.rates, c.Model, c.Cfg); err != nil {
		t.Fatalf("intact payload: %v", err)
	}
}

// TestBuildCountsReachableCells: a Build advances
// ditl.assignments_reachable by exactly its reachable cells; each
// assembly shard counts its own and adds them once.
func TestBuildCountsReachableCells(t *testing.T) {
	f := buildFixture(t)
	before := obsAssignReachable.Value()
	c, err := Build(context.Background(), f.g, f.letters, f.pop, nil, f.rates, f.camp.Model, Config{}, 7)
	if err != nil {
		t.Fatal(err)
	}
	got := obsAssignReachable.Value() - before
	var want uint64
	for li := range c.Letters {
		for ri := 0; ri < c.NumRecursives(); ri++ {
			if c.At(li, ri).Reachable {
				want++
			}
		}
	}
	if want == 0 || got != want {
		t.Fatalf("Build advanced the reachable counter by %d, campaign has %d reachable cells", got, want)
	}
}

// TestAssembleLeavesPopulationAlone: assembling again on the fixture's
// population reproduces its campaign byte for byte, junk sources
// included, and leaves the population's address pool untouched.
func TestAssembleLeavesPopulationAlone(t *testing.T) {
	f := buildFixture(t)
	pool := *f.pop.Pool
	want := f.camp.EncodeArtifact()
	for i := 0; i < 2; i++ {
		c, err := Assemble(context.Background(), f.camp.table, f.letters, f.pop, f.camp.Zone, f.rates, f.camp.Model, Config{}, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c.EncodeArtifact(), want) {
			t.Errorf("assembly %d differs from the fixture's campaign", i+1)
		}
	}
	if *f.pop.Pool != pool {
		t.Errorf("Assemble moved the population's pool from %+v to %+v", pool, *f.pop.Pool)
	}
}
