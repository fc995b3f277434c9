package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"anycastctx"
)

// TestMain runs main instead of the tests when the test binary is
// re-executed with ANYCASTSIM_RUN_MAIN set, so the tests can drive the
// command's flags and exit status.
func TestMain(m *testing.M) {
	if os.Getenv("ANYCASTSIM_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadScaleExitTwo: a scale outside (0, 1], NaN included, is named on
// standard error and exits 2 before any world is built; nothing reaches
// standard output. Scale 0 would otherwise build the paper-scale world
// and report it as scale 0.00.
func TestBadScaleExitTwo(t *testing.T) {
	for _, scale := range []string{"0", "-0.5", "1.5", "NaN", "+Inf"} {
		cmd := exec.Command(os.Args[0], "-scale", scale)
		cmd.Env = append(os.Environ(), "ANYCASTSIM_RUN_MAIN=1")
		var stdout, stderr strings.Builder
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		exit, ok := err.(*exec.ExitError)
		if !ok || exit.ExitCode() != 2 {
			t.Errorf("-scale %s: exit %v, want status 2", scale, err)
		}
		if !strings.HasPrefix(stderr.String(), "-scale ") {
			t.Errorf("-scale %s: stderr %q does not name -scale", scale, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("-scale %s: printed %q", scale, stdout.String())
		}
	}
}

func TestValidateFlags(t *testing.T) {
	for _, tc := range []struct {
		scale float64
		ok    bool
	}{
		{0.25, true}, {1, true}, {1e-9, true},
		{0, false}, {-1, false}, {1.0000001, false}, {math.NaN(), false}, {math.Inf(1), false},
	} {
		err := validateFlags(tc.scale)
		if tc.ok != (err == nil) {
			t.Errorf("validateFlags(%v) = %v, want ok=%v", tc.scale, err, tc.ok)
		}
		if err != nil && !strings.HasPrefix(err.Error(), "-scale ") {
			t.Errorf("validateFlags(%v) = %q, does not name -scale", tc.scale, err)
		}
	}
}

// TestDumpWritesServerLogsStage: serverlogs.csv holds one line per row of
// the world's server_logs stage, the table fig5a, fig5b, fig7a and
// continents read, in the stage's order.
func TestDumpWritesServerLogsStage(t *testing.T) {
	w, err := anycastctx.NewWorld(anycastctx.Config{Seed: 1, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := dumpDatasets(context.Background(), w, dir); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "serverlogs.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	rows := w.ServerLogs()
	if len(rows) == 0 || len(lines) != 1+len(rows) {
		t.Fatalf("serverlogs.csv has %d lines for %d stage rows plus a header", len(lines), len(rows))
	}
	for i, r := range rows {
		f := strings.Split(lines[1+i], ",")
		if f[0] != r.Ring || f[1] != fmt.Sprint(r.Location.ASN) || f[6] != fmt.Sprintf("%.2f", r.MedianRTTMs) {
			t.Fatalf("line %d is %q, stage row is %+v", 1+i, lines[1+i], r)
		}
	}
}
