package main

import (
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"
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
