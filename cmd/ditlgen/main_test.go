package main

import (
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain runs main instead of the tests when the test binary is
// re-executed with DITLGEN_RUN_MAIN set, so the tests can drive the
// command's flags and exit status.
func TestMain(m *testing.M) {
	if os.Getenv("DITLGEN_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadCountsExitTwo: a packet or site count below 1, or a scale
// outside (0, 1] (NaN included), is named on standard error, exits 2
// before any world is built, and writes no file. Scale 0 would otherwise
// build the paper-scale world.
func TestBadCountsExitTwo(t *testing.T) {
	cases := []struct {
		args []string
		flag string
	}{
		{[]string{"-packets", "-100", "-sites", "1"}, "-packets"},
		{[]string{"-packets", "0"}, "-packets"},
		{[]string{"-sites", "-3"}, "-sites"},
		{[]string{"-sites", "0", "-packets", "5"}, "-sites"},
		{[]string{"-scale", "0"}, "-scale"},
		{[]string{"-scale", "-0.5"}, "-scale"},
		{[]string{"-scale", "1.5"}, "-scale"},
		{[]string{"-scale", "NaN"}, "-scale"},
		{[]string{"-scale", "+Inf", "-packets", "0"}, "-scale"},
	}
	for _, tc := range cases {
		dir := t.TempDir()
		args := append([]string{"-scale", "0.05", "-out", dir}, tc.args...)
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "DITLGEN_RUN_MAIN=1")
		var stderr strings.Builder
		cmd.Stderr = &stderr
		err := cmd.Run()
		exit, ok := err.(*exec.ExitError)
		if !ok || exit.ExitCode() != 2 {
			t.Errorf("%v: exit %v, want status 2", tc.args, err)
		}
		if !strings.HasPrefix(stderr.String(), tc.flag+" ") {
			t.Errorf("%v: stderr %q does not name %s", tc.args, stderr.String(), tc.flag)
		}
		if files, _ := filepath.Glob(filepath.Join(dir, "*")); len(files) != 0 {
			t.Errorf("%v: wrote %v", tc.args, files)
		}
	}
}

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		scale          float64
		packets, sites int
		bad            string // the flag the error must name; "" means accepted
	}{
		{0.15, 20000, 2, ""},
		{1, 1, 1, ""},
		{0.15, 0, 1, "-packets"},
		{0.15, -100, 1, "-packets"},
		{0.15, 5, 0, "-sites"},
		{0.15, 5, -3, "-sites"},
		{0.15, 0, 0, "-packets"},
		{0, 5, 1, "-scale"},
		{-1, 5, 1, "-scale"},
		{1.0000001, 5, 1, "-scale"},
		{math.NaN(), 5, 1, "-scale"},
		{math.Inf(1), 0, 0, "-scale"},
	}
	for _, tc := range cases {
		err := validateFlags(tc.scale, tc.packets, tc.sites)
		switch {
		case tc.bad == "" && err != nil:
			t.Errorf("validateFlags(%v, %d, %d) = %v, want nil", tc.scale, tc.packets, tc.sites, err)
		case tc.bad != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.bad+" ")):
			t.Errorf("validateFlags(%v, %d, %d) = %v, want an error naming %s", tc.scale, tc.packets, tc.sites, err, tc.bad)
		}
	}
}
