package anycastctx

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"anycastctx/internal/scenario"
	"anycastctx/internal/topology"
	"anycastctx/internal/world"
)

var update = flag.Bool("update", false, "rewrite the golden digest files under testdata/golden from this run")

// The golden world is fixed here rather than read from
// ANYCASTCTX_TEST_SCALE, so the digests mean the same thing in every run.
const (
	goldenScale = 0.05
	goldenSeed  = 1
)

func sha256Hex(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// experimentDigest is the SHA-256 of everything -run prints for an
// experiment: ID, Title, PaperClaim, Measured and Output, NUL-separated.
func experimentDigest(r Result) string {
	return sha256Hex(strings.Join([]string{r.ID, r.Title, r.PaperClaim, r.Measured, r.Output}, "\x00"))
}

// checkGolden compares got, one digest line per entry, against the golden
// file at path, or rewrites the file under -update.
func checkGolden(t *testing.T, path string, got []string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), path)
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (create it with: go test -run %s -update)", err, t.Name())
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(got) != len(want) {
		t.Errorf("%d digests, golden file has %d", len(got), len(want))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Errorf("digest changed:\n got %s\nwant %s", got[i], want[i])
		}
	}
}

// TestGoldenDigests pins what every experiment prints, for both DITL
// years: one line "<year> <id> <sha256>" per experiment in
// testdata/golden/experiments.sha256. A change that moves any printed
// byte fails here until it is accepted with
// `go test -run TestGoldenDigests -update`.
func TestGoldenDigests(t *testing.T) {
	var got []string
	for _, year := range []world.Year{DITL2018, DITL2020} {
		w, err := BuildWorld(Config{Seed: goldenSeed, Scale: goldenScale, Year: year})
		if err != nil {
			t.Fatalf("year %d: %v", year, err)
		}
		results, err := RunAllCtx(context.Background(), w, 1)
		if err != nil {
			t.Fatalf("year %d: %v", year, err)
		}
		for _, r := range results {
			got = append(got, fmt.Sprintf("%d %s %s", year, r.ID, experimentDigest(r)))
		}
	}
	checkGolden(t, filepath.Join("testdata", "golden", "experiments.sha256"), got)
}

// TestScenarioGoldenDigests pins the report of every builtin what-if
// scenario on the golden world: one line "<name> <sha256>" per builtin in
// testdata/golden/scenarios.sha256.
func TestScenarioGoldenDigests(t *testing.T) {
	ctx := context.Background()
	w, err := BuildWorld(Config{Seed: goldenSeed, Scale: goldenScale})
	if err != nil {
		t.Fatal(err)
	}
	base := scenario.NewBaseline(w)
	var got []string
	for _, spec := range scenario.Builtins() {
		res, err := scenario.Eval(ctx, base, spec, scenario.Options{})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		got = append(got, fmt.Sprintf("%s %s", spec.Name, sha256Hex(res.Report(ctx))))
	}
	checkGolden(t, filepath.Join("testdata", "golden", "scenarios.sha256"), got)
}

// graphDigest hashes g through its exported API, as the graph golden of
// internal/world does: every AS's fields in All order, then every
// explicit peering edge.
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
