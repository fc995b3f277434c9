package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"anycastctx"
	"anycastctx/internal/ditl"
	"anycastctx/internal/obs"
	"anycastctx/internal/stage"
)

func TestResolveWorkers(t *testing.T) {
	ncpu := runtime.NumCPU()
	cases := []struct {
		jobs, want int
	}{
		{jobs: 0, want: ncpu},
		{jobs: -3, want: ncpu},
		{jobs: 1, want: 1},
		{jobs: 4, want: 4},
	}
	for _, c := range cases {
		if got := resolveWorkers(c.jobs); got != c.want {
			t.Errorf("resolveWorkers(%d) = %d, want %d", c.jobs, got, c.want)
		}
	}
}

// TestReportRoundTripsHeapFields writes a report through the same JSON
// path main uses and checks the memory-ceiling fields survive the trip.
func TestReportRoundTripsHeapFields(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	obs.SampleHeap()

	results := []anycastctx.Result{{ID: "figX", Title: "t", Measured: "m"}}
	rep := buildReport(anycastctx.Config{Seed: 3, Scale: 0.01}, 2018, 0, results, nil, obs.Span{}, 5*time.Millisecond)
	if rep.PeakHeapBytes == 0 {
		t.Fatal("PeakHeapBytes not populated after SampleHeap")
	}
	if runtime.GOOS == "linux" && rep.PeakRSSBytes == 0 {
		t.Fatal("PeakRSSBytes empty on linux")
	}
	if rep.PeakRSSBytes < rep.PeakHeapBytes {
		t.Errorf("peak RSS %d < peak heap %d", rep.PeakRSSBytes, rep.PeakHeapBytes)
	}

	path := filepath.Join(t.TempDir(), "report.json")
	if err := writeJSON(path, rep); err != nil {
		t.Fatal(err)
	}
	var back runReport
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.PeakHeapBytes != rep.PeakHeapBytes || back.PeakRSSBytes != rep.PeakRSSBytes {
		t.Errorf("heap fields did not round-trip: got %d/%d, want %d/%d",
			back.PeakHeapBytes, back.PeakRSSBytes, rep.PeakHeapBytes, rep.PeakRSSBytes)
	}
	if back.Seed != 3 || len(back.Experiments) != 1 || back.Experiments[0].ID != "figX" {
		t.Errorf("report body did not round-trip: %+v", back)
	}
}

// TestConfigHashDistinguishesConfigs pins what a report's config_hash
// tells apart: the world's configuration, but not where its artifacts
// are stored.
func TestConfigHashDistinguishesConfigs(t *testing.T) {
	a := configHash(anycastctx.Config{Seed: 1, Scale: 0.1})
	b := configHash(anycastctx.Config{Seed: 2, Scale: 0.1})
	if a == b {
		t.Error("different configs hash equal")
	}
	if a != configHash(anycastctx.Config{Seed: 1, Scale: 0.1}) {
		t.Error("equal configs hash differently")
	}
	if a != configHash(anycastctx.Config{Seed: 1, Scale: 0.1, CacheDir: "cdA"}) {
		t.Error("config_hash depends on -cache-dir")
	}
	if len(a) != 16 {
		t.Errorf("hash %q not 16 hex chars", a)
	}
}

// TestValidateFlags pins the flag guards, NaN included: `*scale <= 0 ||
// *scale > 1` is false for NaN, so validity is asserted directly — a NaN
// passed through would only surface deep inside the world build.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name   string
		scale  float64
		faults float64
		jobs   int
		oracle bool
		// scenario, report, memprofile and out are the string flags.
		scenario, report, memprofile, out string
		// bad names the flag the error must mention; "" means accepted.
		bad string
	}{
		{name: "defaults", scale: 1},
		{name: "small scale with faults and jobs", scale: 0.05, faults: 0.5, jobs: 8},
		{name: "zero scale", bad: "-scale"},
		{name: "negative scale", scale: -0.2, bad: "-scale"},
		{name: "scale above one", scale: 1.5, bad: "-scale"},
		{name: "NaN scale", scale: math.NaN(), bad: "-scale"},
		{name: "infinite scale", scale: math.Inf(1), bad: "-scale"},
		{name: "negative fault rate", scale: 1, faults: -0.1, bad: "-faults"},
		{name: "fault rate one", scale: 1, faults: 1, bad: "-faults"},
		{name: "NaN fault rate", scale: 1, faults: math.NaN(), bad: "-faults"},
		{name: "negative jobs", scale: 1, jobs: -1, bad: "-j"},
		{name: "outputs without scenario", scale: 1, report: "r.json", memprofile: "m.pprof", out: "d"},
		{name: "scenario alone", scale: 1, scenario: "surge-2x"},
		{name: "scenario with report", scale: 1, scenario: "surge-2x", report: "r.json", bad: "-report"},
		{name: "scenario with memprofile", scale: 1, scenario: "surge-2x", memprofile: "m.pprof", bad: "-memprofile"},
		{name: "scenario with out", scale: 1, scenario: "surge-2x", out: "d", bad: "-out"},
		{name: "scenario with oracle", scale: 1, scenario: "surge-2x", oracle: true},
		{name: "oracle without scenario", scale: 1, oracle: true, bad: "-scenario-oracle"},
	}
	for _, tc := range cases {
		err := validateFlags(tc.scale, tc.faults, tc.jobs, tc.scenario, tc.oracle, tc.report, tc.memprofile, tc.out)
		switch {
		case tc.bad == "" && err != nil:
			t.Errorf("%s: validateFlags = %v, want nil", tc.name, err)
		case tc.bad != "" && err == nil:
			t.Errorf("%s: validateFlags accepted", tc.name)
		case tc.bad != "" && !strings.HasPrefix(err.Error(), tc.bad+" "):
			t.Errorf("%s: validateFlags = %q, want an error naming %s", tc.name, err, tc.bad)
		}
	}
}

// TestResolveScenarioSpec covers the -scenario argument mapping: builtin
// names, spec files, and the error listing for everything else.
func TestResolveScenarioSpec(t *testing.T) {
	spec, err := resolveScenarioSpec("withdraw-b-site")
	if err != nil {
		t.Fatalf("builtin lookup: %v", err)
	}
	if spec.Name != "withdraw-b-site" || len(spec.Mutations) == 0 {
		t.Errorf("builtin spec wrong: %+v", spec)
	}

	p := filepath.Join(t.TempDir(), "surge.json")
	if err := os.WriteFile(p, []byte(`{"name":"from-file","mutations":[{"kind":"traffic_surge","factor":2}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err = resolveScenarioSpec(p)
	if err != nil {
		t.Fatalf("spec file: %v", err)
	}
	if spec.Name != "from-file" {
		t.Errorf("file spec name = %q", spec.Name)
	}

	if _, err := resolveScenarioSpec("no-such-scenario"); err == nil {
		t.Error("bogus scenario accepted")
	}
	if _, err := resolveScenarioSpec(t.TempDir()); err == nil {
		t.Error("directory accepted as spec file")
	}
}

// TestCompareWithRebuildComparesCampaigns: the scenario oracle fails two
// campaigns whose reports agree but whose encodings differ in one TCP
// median, or whose columns agree but whose route tables differ in one
// base RTT, fails two joins one user count apart, and passes two equal
// campaigns and joins.
func TestCompareWithRebuildComparesCampaigns(t *testing.T) {
	w, err := anycastctx.NewWorld(anycastctx.TestScaleConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Demand(context.Background(), stage.Campaign, stage.Join); err != nil {
		t.Fatal(err)
	}
	c, j := w.Campaign(), w.JoinCtx(context.Background())
	li, ri := -1, -1
	for l := range c.Letters {
		for r := 0; r < c.NumRecursives() && li < 0; r++ {
			if !math.IsNaN(c.At(l, r).TCPMedianRTTMs) {
				li, ri = l, r
			}
		}
	}
	if li < 0 {
		t.Fatal("no cell drew a TCP median")
	}
	med := c.At(li, ri).TCPMedianRTTMs
	blob := c.EncodeArtifact()
	var bits [8]byte
	binary.LittleEndian.PutUint64(bits[:], math.Float64bits(med))
	if n := bytes.Count(blob, bits[:]); n != 1 {
		t.Fatalf("median %v appears %d times in the encoding, want once", med, n)
	}
	doctored := append([]byte(nil), blob...)
	doctored[bytes.Index(blob, bits[:])] ^= 1
	decode := func(blob []byte, table *ditl.RouteTable) *ditl.Campaign {
		t.Helper()
		d, err := ditl.DecodeCampaignArtifact(blob, table, c.Letters, c.Pop, c.Zone, c.Rates, c.Model, c.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	other := decode(doctored, c.RouteTable())
	if got := other.At(li, ri).TCPMedianRTTMs; got == med {
		t.Fatalf("doctored campaign kept median %v", med)
	}

	// The same columns on a table one base RTT apart.
	rtt := c.At(li, ri).BaseRTTMs
	tblob := c.RouteTable().EncodeArtifact()
	binary.LittleEndian.PutUint64(bits[:], math.Float64bits(rtt))
	at := bytes.LastIndex(tblob, bits[:])
	if at < 0 {
		t.Fatalf("base RTT %v not in the route table encoding", rtt)
	}
	tdoctored := append([]byte(nil), tblob...)
	tdoctored[at] ^= 1
	table, err := ditl.DecodeRouteTable(tdoctored, c.Letters, c.Pop)
	if err != nil {
		t.Fatal(err)
	}
	moved := decode(blob, table)
	if !bytes.Equal(moved.EncodeArtifact(), blob) {
		t.Fatal("campaign on the doctored table encodes different columns")
	}

	const rep = "scenario report\n"
	if err := compareWithRebuild(rep, rep, c, decode(blob, c.RouteTable()), j, j); err != nil {
		t.Errorf("equal campaigns: %v", err)
	}
	for _, tc := range []struct {
		name  string
		other *ditl.Campaign
	}{{"one TCP median apart", other}, {"one base RTT apart", moved}} {
		err := compareWithRebuild(rep, rep, c, tc.other, j, j)
		if err == nil || !strings.Contains(err.Error(), "incremental campaign differs from full rebuild") {
			t.Errorf("campaigns %s: err = %v", tc.name, err)
		}
	}

	if len(j.Rows) == 0 {
		t.Fatal("empty join")
	}
	shifted := &ditl.Join{Rows: append([]ditl.JoinedRow(nil), j.Rows...)}
	shifted.Rows[0].Users++
	err = compareWithRebuild(rep, rep, c, c, j, shifted)
	if err == nil || !strings.Contains(err.Error(), "incremental join differs from full rebuild") {
		t.Errorf("joins one user count apart: err = %v", err)
	}
}
