package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// e2e returns the five end-to-end metrics of an untraced run; the other
// four follow op_ms_p50.
func e2e(opMs float64) map[string]float64 {
	return map[string]float64{
		"setup_s":     0.5,
		"op_ms_p50":   opMs,
		"op_ms_p90":   1.1 * opMs,
		"ops_per_s":   1000 / opMs,
		"peak_rss_mb": 60,
	}
}

// line is a correct result line of 100 operations with the given metrics.
func line(metrics map[string]float64) result {
	r := result{Correct: true, Attempted: 100, Metrics: map[string]value{}}
	for k, v := range metrics {
		r.Metrics[k] = value{v}
	}
	return r
}

// noise is a fixed ±4% wobble, so paired runs of equal code land on
// either side of each other.
var noise = []float64{1.00, 1.03, 0.97, 1.04, 0.98, 1.01, 0.96, 1.02, 0.99, 1.03}

// writeRun writes one result line as dir/<workload>.<pair>.json.
func writeRun(t *testing.T, dir, workload, pair string, r result) {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, workload+"."+pair+".json"), append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// pairs writes n pairs of cold-suite runs: the base at 1000 ms and the
// head at 1000 ms times headScale, each with its own noise.
func pairs(t *testing.T, n int, headScale float64) (baseDir, headDir string) {
	t.Helper()
	baseDir, headDir = t.TempDir(), t.TempDir()
	for i := 0; i < n; i++ {
		writeRun(t, baseDir, "cold-suite", fmt.Sprint(i+1), line(e2e(1000*noise[i%len(noise)])))
		writeRun(t, headDir, "cold-suite", fmt.Sprint(i+1), line(e2e(1000*headScale*noise[(i+3)%len(noise)])))
	}
	return baseDir, headDir
}

var testGates = []gate{
	{"setup_s", false, true},
	{"op_ms_p50", false, true},
	{"op_ms_p90", false, true},
	{"ops_per_s", true, true},
	{"peak_rss_mb", false, true},
	{"alloc_mb", false, false},
}

// gateDirs runs the decision on two result directories and returns the
// table and the failures.
func gateDirs(t *testing.T, baseDir, headDir string) (string, []string) {
	t.Helper()
	base, err := readRuns(baseDir)
	if err != nil {
		t.Fatal(err)
	}
	head, err := readRuns(headDir)
	if err != nil {
		t.Fatal(err)
	}
	rows, failures := diff(testGates, base, head)
	var tbl bytes.Buffer
	writeTable(&tbl, rows, failures)
	return tbl.String(), failures
}

// wantFailures checks the failures, in order, against want's prefixes,
// and that the table passes exactly when none are wanted.
func wantFailures(t *testing.T, tbl string, failures []string, want ...string) {
	t.Helper()
	ok := len(failures) == len(want) && strings.Contains(tbl, "PASS: no regression") == (len(want) == 0)
	for i := 0; ok && i < len(want); i++ {
		ok = strings.HasPrefix(failures[i], want[i])
	}
	if !ok {
		t.Errorf("failures %q, want prefixes %q:\n%s", failures, want, tbl)
	}
}

// TestParseBenchOutput pins how result directories are read: one file
// per run named <workload>.<pair>.json, holding the run's result line.
func TestParseBenchOutput(t *testing.T) {
	dir := t.TempDir()
	writeRun(t, dir, "cold-suite", "1", line(e2e(700)))
	writeRun(t, dir, "cold-suite", "trace", line(map[string]float64{"alloc_mb": 267.6}))
	writeRun(t, dir, "whatif", "1", line(e2e(15)))
	got, err := readRuns(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || len(got["cold-suite"]) != 2 || len(got["whatif"]) != 1 {
		t.Fatalf("read %v", got)
	}
	if v := got["cold-suite"]["1"].Metrics["op_ms_p50"].Value; v != 700 {
		t.Errorf("cold-suite.1 op_ms_p50 = %v, want 700", v)
	}
	if v := got["cold-suite"]["trace"].Metrics["alloc_mb"].Value; v != 267.6 {
		t.Errorf("cold-suite.trace alloc_mb = %v, want 267.6", v)
	}

	// A run that crashed before printing leaves an empty file; the gate
	// must not read that as a pass.
	if err := os.WriteFile(filepath.Join(dir, "capture.1.json"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readRuns(dir); err == nil {
		t.Error("an empty result file was accepted")
	}
	bad := t.TempDir()
	if err := os.WriteFile(filepath.Join(bad, "cold-suite.json"), []byte(`{"correct":true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readRuns(bad); err == nil {
		t.Error("a file not named <workload>.<pair>.json was accepted")
	}
	if _, err := readRuns(t.TempDir()); err == nil {
		t.Error("an empty directory was accepted")
	}
}

// TestDiffPassesWithinThresholds: runs of equal code, each side with its
// own noise, pass, and so does a large improvement, whichever direction
// each metric prefers.
func TestDiffPassesWithinThresholds(t *testing.T) {
	for _, tc := range []struct {
		n     int
		scale float64
	}{{4, 1}, {8, 1}, {10, 1}, {8, 0.5}} {
		baseDir, headDir := pairs(t, tc.n, tc.scale)
		tbl, failures := gateDirs(t, baseDir, headDir)
		wantFailures(t, tbl, failures)
	}
}

// TestDiffFlagsRegressionsPastThreshold: a 15% slowdown fails on every
// timing metric; a change that is consistent but inside the base's own
// spread, or worse in fewer than nine tenths of the pairs, does not.
func TestDiffFlagsRegressionsPastThreshold(t *testing.T) {
	baseDir, headDir := pairs(t, 8, 1.15)
	tbl, failures := gateDirs(t, baseDir, headDir)
	wantFailures(t, tbl, failures, "cold-suite op_ms_p50: head worse in 8/8 pairs", "cold-suite op_ms_p90:", "cold-suite ops_per_s:")

	// Worse in every pair, by less than the base's quartile spread.
	baseDir, headDir = t.TempDir(), t.TempDir()
	for i := 0; i < 8; i++ {
		b := 1000 * noise[i]
		writeRun(t, baseDir, "cold-suite", fmt.Sprint(i), line(e2e(b)))
		writeRun(t, headDir, "cold-suite", fmt.Sprint(i), line(e2e(1.01*b)))
	}
	tbl, failures = gateDirs(t, baseDir, headDir)
	wantFailures(t, tbl, failures)

	// Ten pairs: 9 worse fails, 8 worse passes.
	for _, tc := range []struct {
		better int
		want   []string
	}{{1, []string{"cold-suite op_ms_p50:", "cold-suite op_ms_p90:", "cold-suite ops_per_s:"}}, {2, nil}} {
		baseDir, headDir = t.TempDir(), t.TempDir()
		for i := 0; i < 10; i++ {
			scale := 1.2
			if i < tc.better {
				scale = 0.99
			}
			writeRun(t, baseDir, "cold-suite", fmt.Sprint(i), line(e2e(1000*noise[i])))
			writeRun(t, headDir, "cold-suite", fmt.Sprint(i), line(e2e(1000*scale*noise[i])))
		}
		tbl, failures = gateDirs(t, baseDir, headDir)
		wantFailures(t, tbl, failures, tc.want...)
	}
}

// TestDiffZeroBaselineGates: a zero on the base side is no excuse. A head
// that fails operations where the base failed none fails the gate, and so
// does a metric that grows from zero in every pair; zero to zero is no
// change.
func TestDiffZeroBaselineGates(t *testing.T) {
	baseDir, headDir := pairs(t, 6, 1)
	r := line(e2e(1000))
	r.Failed = 1
	writeRun(t, headDir, "cold-suite", "3", r)
	tbl, failures := gateDirs(t, baseDir, headDir)
	wantFailures(t, tbl, failures, "cold-suite: head failed 1/600 operations, base 0/600")

	baseDir, headDir = t.TempDir(), t.TempDir()
	for i := 0; i < 6; i++ {
		b, h := e2e(1000*noise[i]), e2e(1000*noise[i+1])
		b["setup_s"], h["setup_s"] = 0, 0.1
		b["peak_rss_mb"], h["peak_rss_mb"] = 0, 0
		writeRun(t, baseDir, "cold-suite", fmt.Sprint(i), line(b))
		writeRun(t, headDir, "cold-suite", fmt.Sprint(i), line(h))
	}
	tbl, failures = gateDirs(t, baseDir, headDir)
	wantFailures(t, tbl, failures, "cold-suite setup_s: head worse in 6/6 pairs")
	if !strings.Contains(tbl, "+Inf%") {
		t.Errorf("a change from zero is not shown as +Inf%%:\n%s", tbl)
	}
}

// TestDiffFailsIncorrectRuns: a run that reports correct:false fails the
// gate, on either side.
func TestDiffFailsIncorrectRuns(t *testing.T) {
	for _, side := range []string{"base", "head"} {
		baseDir, headDir := pairs(t, 6, 1)
		dir := map[string]string{"base": baseDir, "head": headDir}[side]
		r := line(e2e(1000))
		r.Correct = false
		writeRun(t, dir, "cold-suite", "2", r)
		tbl, failures := gateDirs(t, baseDir, headDir)
		wantFailures(t, tbl, failures, side+" run cold-suite.2 reported correct:false")
	}
}

// TestDiffNewAndRemovedMetricsPass: a metric or a workload that only one
// side reports is listed and never fails the gate.
func TestDiffNewAndRemovedMetricsPass(t *testing.T) {
	baseDir, headDir := pairs(t, 6, 1)
	for i := 0; i < 6; i++ {
		m := e2e(1000 * noise[i])
		delete(m, "peak_rss_mb")
		writeRun(t, headDir, "cold-suite", fmt.Sprint(i+1), line(m))
	}
	writeRun(t, baseDir, "cold-suite", "trace", line(map[string]float64{"alloc_mb": 200}))
	writeRun(t, headDir, "capture", "1", line(e2e(4)))
	tbl, failures := gateDirs(t, baseDir, headDir)
	wantFailures(t, tbl, failures)
	for _, want := range []string{
		"| cold-suite | peak_rss_mb | 60 | - | - | - | - | removed |",
		"| cold-suite | alloc_mb | 200 | - | - | - | - | removed |",
		"| capture | op_ms_p50 | - | 4 | - | - | - | new |",
	} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table lacks %q:\n%s", want, tbl)
		}
	}
}

// TestDiffAllocBound: alloc_mb, from one traced run per side, fails above
// its fixed bound and passes below it.
func TestDiffAllocBound(t *testing.T) {
	for _, tc := range []struct {
		head float64
		want []string
	}{{267.68, nil}, {275, nil}, {281, []string{"cold-suite alloc_mb: head worse in 1/1 pairs"}}} {
		baseDir, headDir := pairs(t, 6, 1)
		writeRun(t, baseDir, "cold-suite", "trace", line(map[string]float64{"alloc_mb": 267.63}))
		writeRun(t, headDir, "cold-suite", "trace", line(map[string]float64{"alloc_mb": tc.head}))
		tbl, failures := gateDirs(t, baseDir, headDir)
		wantFailures(t, tbl, failures, tc.want...)
	}
}

// TestReadSpec reads the committed BENCHMARK.json: the five end-to-end
// metrics and alloc_mb, with their directions.
func TestReadSpec(t *testing.T) {
	got, err := readSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(testGates) {
		t.Errorf("gates = %v, want %v", got, testGates)
	}
}

// TestRunTakesTwoDirectories: the command has no flags, only the two
// directories.
func TestRunTakesTwoDirectories(t *testing.T) {
	for _, args := range [][]string{nil, {"base"}, {"-max-ns", "400", "base", "head"}} {
		var stderr bytes.Buffer
		if code := run(args, &bytes.Buffer{}, &stderr); code != 2 || !strings.Contains(stderr.String(), "usage") {
			t.Errorf("run(%q) = %d, %q; want 2 and usage", args, code, stderr.String())
		}
	}
}
