package main

import (
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

// TestBadCountsExitTwo: a packet or site count below 1 is named on
// standard error, exits 2 before any world is built, and writes no file.
func TestBadCountsExitTwo(t *testing.T) {
	cases := []struct {
		args []string
		flag string
	}{
		{[]string{"-packets", "-100", "-sites", "1"}, "-packets"},
		{[]string{"-packets", "0"}, "-packets"},
		{[]string{"-sites", "-3"}, "-sites"},
		{[]string{"-sites", "0", "-packets", "5"}, "-sites"},
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
		packets, sites int
		bad            string // the flag the error must name; "" means accepted
	}{
		{20000, 2, ""},
		{1, 1, ""},
		{0, 1, "-packets"},
		{-100, 1, "-packets"},
		{5, 0, "-sites"},
		{5, -3, "-sites"},
		{0, 0, "-packets"},
	}
	for _, tc := range cases {
		err := validateFlags(tc.packets, tc.sites)
		switch {
		case tc.bad == "" && err != nil:
			t.Errorf("validateFlags(%d, %d) = %v, want nil", tc.packets, tc.sites, err)
		case tc.bad != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.bad+" ")):
			t.Errorf("validateFlags(%d, %d) = %v, want an error naming %s", tc.packets, tc.sites, err, tc.bad)
		}
	}
}
