package world

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"anycastctx/internal/stage"
	"anycastctx/internal/topology"
)

var update = flag.Bool("update", false, "rewrite the digests under testdata/golden from this run")

// stageGoldenPath holds one line per year and persisted stage:
// "<year> <stage> <Version> <sha256>".
var stageGoldenPath = filepath.Join("testdata", "golden", "stages.sha256")

// stageDigests builds the scale-0.05, seed-1 world for each DITL year and
// hashes the bytes each persisted stage would save to the artifact store.
func stageDigests(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, year := range []Year{DITL2018, DITL2020} {
		w, err := New(Config{Seed: 1, Scale: 0.05, Year: year})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Demand(context.Background(), persistedStages()...); err != nil {
			t.Fatalf("year %d: %v", year, err)
		}
		for _, id := range persistedStages() {
			info, _ := stage.Get(id)
			blob, err := w.encodeStage(id)
			if err != nil {
				t.Fatalf("year %d: %v", year, err)
			}
			sum := sha256.Sum256(blob)
			lines = append(lines, fmt.Sprintf("%d %s %d %s", year, id, info.Version, hex.EncodeToString(sum[:])))
		}
		if _, err := w.encodeStage(stage.Zone); err == nil {
			t.Errorf("year %d: encodeStage encoded the unpersisted zone stage", year)
		}
	}
	return lines
}

// TestStageGoldenDigests pins every persisted stage's artifact bytes to
// the stage's codec Version. A stage whose bytes move while its Version
// stays put would let -cache-dir serve blobs a cold run no longer
// produces, so that case fails and names the stage to bump. After a bump,
// accept the new digests with `go test -run TestStageGoldenDigests -update`.
func TestStageGoldenDigests(t *testing.T) {
	got := stageDigests(t)
	prev := runtime.GOMAXPROCS(1)
	serial := stageDigests(t)
	runtime.GOMAXPROCS(prev)
	for i := range got {
		if got[i] != serial[i] {
			t.Fatalf("stage digest differs under GOMAXPROCS=1:\n%s\n%s", got[i], serial[i])
		}
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(stageGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(stageGoldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), stageGoldenPath)
		return
	}
	raw, err := os.ReadFile(stageGoldenPath)
	if err != nil {
		t.Fatalf("%v (create it with: go test -run TestStageGoldenDigests -update)", err)
	}
	want := map[string][2]string{} // "<year> <stage>" → {Version, digest}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		f := strings.Fields(line)
		if len(f) != 4 {
			t.Fatalf("malformed golden line %q", line)
		}
		want[f[0]+" "+f[1]] = [2]string{f[2], f[3]}
	}
	if len(want) != len(got) {
		t.Errorf("%d stage digests, golden file has %d", len(got), len(want))
	}
	for _, line := range got {
		f := strings.Fields(line)
		key, version, digest := f[0]+" "+f[1], f[2], f[3]
		w, ok := want[key]
		switch {
		case !ok:
			t.Errorf("%s: no golden digest (add it with -update)", key)
		case w[1] != digest && w[0] == version:
			t.Errorf("%s: artifact bytes changed but Version is still %s; bump stage %q's Version in internal/stage so stale -cache-dir blobs are never loaded, then run -update",
				key, version, f[1])
		case w != [2]string{version, digest}:
			t.Errorf("%s: golden has Version %s digest %s, got Version %s digest %s; accept with -update",
				key, w[0], w[1], version, digest)
		}
	}
}

// graphGoldenPath holds one line per year and scale, "<year> <scale>
// <sha256>", for the AS graph of the seed-1 world (see graphDigest). At
// scale 0.05 the graph has the floor of 20 transits; scales 0.5 and 1
// give the transit rankers 75 and 150.
var graphGoldenPath = filepath.Join("testdata", "golden", "graph.sha256")

// graphScales are the world scales graph.sha256 pins.
var graphScales = []float64{0.05, 0.5, 1}

// graphWorld returns the seed-1 world of year and scale with ids
// demanded.
func graphWorld(t *testing.T, year Year, scale float64, ids ...stage.ID) *World {
	t.Helper()
	w, err := New(Config{Seed: 1, Scale: scale, Year: year})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Demand(context.Background(), ids...); err != nil {
		t.Fatalf("year %d, scale %v: %v", year, scale, err)
	}
	return w
}

// graphGolden reads graph.sha256 into a map from "<year> <scale>" to
// digest, or under -update rewrites it from this run and returns nil: the
// scale-0.05 graphs with every stage demanded, the larger ones with the
// topology stage alone, which builds the whole graph.
func graphGolden(t *testing.T) map[string]string {
	t.Helper()
	if *update {
		var lines []string
		for _, year := range []Year{DITL2018, DITL2020} {
			for _, scale := range graphScales {
				ids := []stage.ID{stage.Topology}
				if scale == graphScales[0] {
					ids = stage.All()
				}
				lines = append(lines, fmt.Sprintf("%d %v %s", year, scale, graphDigest(graphWorld(t, year, scale, ids...).Graph())))
			}
		}
		if err := os.WriteFile(graphGoldenPath, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(lines), graphGoldenPath)
		return nil
	}
	raw, err := os.ReadFile(graphGoldenPath)
	if err != nil {
		t.Fatalf("%v (create it with: go test -run TestGraphGoldenDigests -update)", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		f := strings.Fields(line)
		if len(f) != 3 {
			t.Fatalf("malformed golden line %q", line)
		}
		want[f[0]+" "+f[1]] = f[2]
	}
	return want
}

// graphDigest hashes g through its exported API: every AS's fields in
// All order, then every explicit peering edge.
func graphDigest(g *topology.Graph) string {
	h := sha256.New()
	all := g.All()
	for _, asn := range all {
		a := g.AS(asn)
		fmt.Fprintf(h, "%d %d %q %d %d %v %v %v %v %v", a.ASN, a.Class, a.Name, a.Org, a.Region,
			a.Loc.Lat, a.Loc.Lon, a.Providers, a.PeeringRichness, a.UserWeight)
		for _, p := range a.Presence {
			fmt.Fprintf(h, " %v %v", p.Lat, p.Lon)
		}
		fmt.Fprintln(h)
	}
	for i, a := range all {
		for _, b := range all[i+1:] {
			if g.HasExplicitPeering(a, b) {
				fmt.Fprintf(h, "peer %d %d\n", a, b)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGraphIndependentOfDemandOrder: whichever single stage a fresh
// scale-0.05 world demands first, its graph (the topology stage demanded
// after it) is the one pinned in graph.sha256, that of a world with every
// stage demanded. Accept a deliberate change with
// `go test -run TestGraphGoldenDigests -update`.
func TestGraphIndependentOfDemandOrder(t *testing.T) {
	want := graphGolden(t)
	if want == nil {
		return
	}
	for _, year := range []Year{DITL2018, DITL2020} {
		w := want[fmt.Sprintf("%d %v", year, graphScales[0])]
		for _, id := range stage.All() {
			if got := graphDigest(graphWorld(t, year, graphScales[0], id, stage.Topology).Graph()); got != w {
				t.Errorf("year %d, demanding %s first: graph digest %s, golden %s", year, id, got, w)
			}
		}
	}
}

// TestGraphGoldenDigests pins the graphs of the scale-0.5 and scale-1
// worlds, the only ones whose transit rankers see more than the floor of
// 20 transits. Accept a deliberate change with
// `go test -run TestGraphGoldenDigests -update`.
func TestGraphGoldenDigests(t *testing.T) {
	want := graphGolden(t)
	if want == nil {
		return
	}
	for _, year := range []Year{DITL2018, DITL2020} {
		for _, scale := range graphScales[1:] {
			key := fmt.Sprintf("%d %v", year, scale)
			got := graphDigest(graphWorld(t, year, scale, stage.Topology).Graph())
			switch w, ok := want[key]; {
			case !ok:
				t.Errorf("%s: no golden digest (add it with -update)", key)
			case got != w:
				t.Errorf("%s: graph digest %s, golden %s", key, got, w)
			}
		}
	}
}
