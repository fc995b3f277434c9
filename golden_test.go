package anycastctx

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"anycastctx/internal/world"
)

var update = flag.Bool("update", false, "rewrite testdata/golden/experiments.sha256 from this run")

// goldenPath holds one line per year and experiment: "<year> <id> <sha256>".
var goldenPath = filepath.Join("testdata", "golden", "experiments.sha256")

// The golden world is fixed here rather than read from
// ANYCASTCTX_TEST_SCALE, so the digests mean the same thing in every run.
const (
	goldenScale = 0.05
	goldenSeed  = 1
)

// experimentDigest is the SHA-256 of an experiment's Measured summary and
// rendered Output, NUL-separated.
func experimentDigest(r Result) string {
	sum := sha256.Sum256([]byte(r.Measured + "\x00" + r.Output))
	return hex.EncodeToString(sum[:])
}

// TestGoldenDigests pins what every experiment prints, for both DITL
// years. A change that moves any Measured or Output byte fails here until
// it is accepted with `go test -run TestGoldenDigests -update`.
func TestGoldenDigests(t *testing.T) {
	var got []string
	for _, year := range []world.Year{DITL2018, DITL2020} {
		w, err := BuildWorld(Config{Seed: goldenSeed, Scale: goldenScale, Year: year})
		if err != nil {
			t.Fatalf("year %d: %v", year, err)
		}
		results, err := RunAll(w)
		if err != nil {
			t.Fatalf("year %d: %v", year, err)
		}
		for _, r := range results {
			got = append(got, fmt.Sprintf("%d %s %s", year, r.ID, experimentDigest(r)))
		}
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), goldenPath)
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (create it with: go test -run TestGoldenDigests -update)", err)
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
