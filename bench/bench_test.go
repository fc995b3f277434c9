package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"anycastctx/internal/obs"
)

// benchmarkFile is BENCHMARK.json in full; decoding it with unknown
// fields disallowed pins its key set.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var f benchmarkFile
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

// heldOutSeed is the seed kept out of development runs: a claimed gain
// must also hold on it.
const heldOutSeed = 7

type target struct{ metric, workload string }

// layerMoves maps each per-layer metric, by name prefix, to the
// end-to-end metrics and workloads it should move, and those where it
// should stay flat. README.md renders the same table.
var layerMoves = []struct {
	prefix      string
	moves, flat []target
}{
	{"world.", []target{{"setup_s", "cold-suite"}, {"op_ms_p50", "warm-start"}}, nil},
	{"artifact.", []target{{"op_ms_p50", "warm-start"}}, []target{{"setup_s", "cold-suite"}}},
	{"experiment.", []target{{"ops_per_s", "cold-suite"}}, nil},
	{"bgp.", []target{{"setup_s", "cold-suite"}, {"op_ms_p90", "whatif"}}, []target{{"ops_per_s", "capture"}, {"op_ms_p50", "warm-start"}}},
	{"topology.", []target{{"setup_s", "cold-suite"}}, []target{{"ops_per_s", "capture"}}},
	{"geo.", []target{{"ops_per_s", "cold-suite"}, {"setup_s", "cold-suite"}}, []target{{"ops_per_s", "capture"}, {"op_ms_p50", "warm-start"}}},
	{"anycastnet.", []target{{"ops_per_s", "cold-suite"}}, []target{{"ops_per_s", "capture"}}},
	{"core.", []target{{"ops_per_s", "cold-suite"}, {"op_ms_p50", "whatif"}}, []target{{"ops_per_s", "capture"}}},
	{"cdn.", []target{{"setup_s", "cold-suite"}}, []target{{"op_ms_p50", "whatif"}}},
	{"dnssim.", []target{{"setup_s", "cold-suite"}}, []target{{"ops_per_s", "capture"}}},
	{"ditl.", []target{{"ops_per_s", "capture"}, {"op_ms_p50", "whatif"}}, nil},
	{"pcapio.", []target{{"ops_per_s", "capture"}}, []target{{"ops_per_s", "cold-suite"}}},
	{"dnswire.", []target{{"ops_per_s", "capture"}}, []target{{"ops_per_s", "cold-suite"}}},
	{"scenario.", []target{{"op_ms_p50", "whatif"}, {"op_ms_p90", "whatif"}}, nil},
	{"alloc_mb", allWorkloads("op_ms_p50"), nil},
	{"gc_pause_ms", allWorkloads("op_ms_p90"), nil},
	{"self_ms.", allWorkloads("op_ms_p50"), nil},
	{"trace_overhead_pct", allWorkloads("ops_per_s"), nil},
}

func allWorkloads(metric string) []target {
	var out []target
	for _, name := range workloadNames() {
		out = append(out, target{metric, name})
	}
	return out
}

func TestBenchmarkDeclaration(t *testing.T) {
	f := readBenchmarkFile(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if strings.Join(f.Command, " ") != "bash bench/run.sh" || strings.Join(f.Paths, " ") != "bench" {
		t.Errorf("command %q and paths %q do not name this benchmark", f.Command, f.Paths)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of [1, 60]", f.RunSeconds)
	}
	if n := len(f.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(f.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(f.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}

	var declared []string
	isWorkload := map[string]bool{}
	for _, w := range f.Workloads {
		if !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why %q", w.Name, w.Why)
		}
		declared = append(declared, w.Name)
		isWorkload[w.Name] = true
	}
	if got, want := strings.Join(declared, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("declared workloads %s, the benchmark runs %s", got, want)
	}

	seen := map[string]bool{}
	unique := func(name string) {
		if seen[name] {
			t.Errorf("metric %q declared twice", name)
		}
		seen[name] = true
	}
	e2e := map[string]bool{}
	setupBound, maxBound := 0.0, 0.0
	for _, m := range f.EndToEnd {
		unique(m.Name)
		e2e[m.Name] = true
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("end-to-end metric %q: bad name or unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("end-to-end metric %q: better %q, want lower or higher", m.Name, m.Better)
		}
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("end-to-end metric %q: regression bound %v out of (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower better")
			}
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s bound %v, want the largest bound (%v)", setupBound, maxBound)
	}
	for _, m := range f.PerLayer {
		unique(m.Name)
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %q: bad name, unit %q or better %q", m.Name, m.Unit, m.Better)
		}
		matched := false
		for _, lm := range layerMoves {
			if !strings.HasPrefix(m.Name, lm.prefix) {
				continue
			}
			matched = true
			for _, tg := range append(append([]target{}, lm.moves...), lm.flat...) {
				if !e2e[tg.metric] || !isWorkload[tg.workload] {
					t.Errorf("per-layer %q names %s on %s, which BENCHMARK.json does not declare", m.Name, tg.metric, tg.workload)
				}
			}
			if len(lm.moves) == 0 {
				t.Errorf("per-layer %q moves no end-to-end metric", m.Name)
			}
		}
		if !matched {
			t.Errorf("per-layer %q has no entry in the layer table", m.Name)
		}
	}
}

// checkMetrics asserts that res carries exactly the declared metrics,
// each with its declared unit and a finite value.
func checkMetrics(t *testing.T, what string, res result, names, units []string) {
	t.Helper()
	if len(res.Metrics) != len(names) {
		t.Errorf("%s: %d metrics, want %d", what, len(res.Metrics), len(names))
	}
	for i, name := range names {
		m, ok := res.Metrics[name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", what, name)
		case m.Unit != units[i]:
			t.Errorf("%s: metric %s in %q, declared %q", what, name, m.Unit, units[i])
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s = %v", what, name, m.Value)
		}
	}
	if res.Failed != 0 || !res.Correct || res.Attempted < 1 {
		t.Errorf("%s: %d of %d operations failed", what, res.Failed, res.Attempted)
	}
}

// TestWorkloads runs every workload at a small scale, one round or sweep,
// untraced and traced, on the development seed and the held-out one.
func TestWorkloads(t *testing.T) {
	f := readBenchmarkFile(t)
	var e2eNames, e2eUnits, layerNames, layerUnits []string
	for _, m := range f.EndToEnd {
		e2eNames, e2eUnits = append(e2eNames, m.Name), append(e2eUnits, m.Unit)
	}
	for _, m := range f.PerLayer {
		layerNames, layerUnits = append(layerNames, m.Name), append(layerUnits, m.Unit)
	}
	ctx := context.Background()
	for _, seed := range []int64{1, heldOutSeed} {
		for _, wl := range workloads {
			opt := options{seed: seed, scale: 0.05, workDir: t.TempDir()}
			what := fmt.Sprintf("%s seed %d", wl.name, seed)
			m, err := measure(ctx, wl, opt, 1)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			checkMetrics(t, what, m.endToEnd(), e2eNames, e2eUnits)

			tr, err := traceWorkload(ctx, wl, opt, filepath.Join(t.TempDir(), "trace.json"))
			if err != nil {
				t.Fatalf("%s traced: %v", what, err)
			}
			res := tr.result()
			checkMetrics(t, what+" traced", res, layerNames, layerUnits)
			if wl.name == "cold-suite" {
				checkLayerSums(t, tr, res)
			}
		}
	}
}

// checkLayerSums asserts that the layers add up to the whole: stage
// times to the set-up, experiment times to the suite, and self times to
// the traced wall time.
func checkLayerSums(t *testing.T, tr *tracedRun, res result) {
	t.Helper()
	sum := func(prefix string) float64 {
		var s float64
		for name, m := range res.Metrics {
			if strings.HasPrefix(name, prefix) {
				s += m.Value
			}
		}
		return s
	}
	var suiteMs float64
	for _, v := range tr.traced.opMs {
		suiteMs += v
	}
	for _, c := range []struct {
		what       string
		parts, all float64
	}{
		{"world.*.ms vs set-up", sum("world."), 1e3 * quantile(tr.traced.setupS, 0.5)},
		{"experiment.*.ms vs suite", sum("experiment."), suiteMs},
		{"self_ms.* vs traced wall", sum("self_ms."), tr.wallMs},
	} {
		if math.Abs(c.parts-c.all) > 0.05*c.all {
			t.Errorf("%s: %.1f ms against %.1f ms", c.what, c.parts, c.all)
		}
	}
}

// TestSelfTimesPartitionWall checks that self times add up to the root
// span's wall time when parallel children overlap.
func TestSelfTimesPartitionWall(t *testing.T) {
	r := obs.NewRegistry()
	r.Enable()
	ctx, root := r.StartSpanCtx(context.Background(), "bench.root")
	_, seq := r.StartSpanCtx(ctx, "world.stage")
	time.Sleep(5 * time.Millisecond)
	seq.End()
	pctx, par := r.StartSpanCtx(ctx, "bgp.warm")
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, sh := r.StartSpanCtx(pctx, "bgp.warm.shard")
			time.Sleep(10 * time.Millisecond)
			sh.End()
		}()
	}
	wg.Wait()
	par.End()
	time.Sleep(2 * time.Millisecond)
	root.End()

	self := selfTimes(r.Spans())
	rec, _ := root.Record()
	var total float64
	for _, v := range self {
		total += v
	}
	if wall := ms(time.Duration(rec.WallNs)); math.Abs(total-wall) > 1e-6*wall {
		t.Errorf("self times sum to %.4f ms, root wall is %.4f ms", total, wall)
	}
	if self["bgp"] < 10 || self["world"] < 5 || self["bench"] <= 0 {
		t.Errorf("self times %v: want bgp >= 10 ms, world >= 5 ms, bench > 0", self)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1.5}, 0.625, 3.25, 5.875},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// TestAgree checks -agree on two synthetic sets of runs: equal sets agree,
// a median moved past the bound disagrees.
func TestAgree(t *testing.T) {
	spec := filepath.Join(t.TempDir(), "BENCHMARK.json")
	os.WriteFile(spec, []byte(`{"workloads":[{"name":"w-1"}],"end_to_end":[{"name":"lat","unit":"ms","better":"lower","bound":0.1}]}`), 0o644)
	write := func(dir string, vals ...float64) {
		os.MkdirAll(dir, 0o755)
		for i, v := range vals {
			line, _ := json.Marshal(result{Correct: true, Attempted: 1, Metrics: map[string]metric{"lat": {v, "ms"}}})
			os.WriteFile(filepath.Join(dir, fmt.Sprintf("w-1.%d.json", i)), append([]byte("log line\n"), line...), 0o644)
		}
	}
	base := t.TempDir()
	write(filepath.Join(base, "a"), 10, 10.1, 9.9, 10.05, 9.95)
	write(filepath.Join(base, "b"), 10.2, 10, 9.9, 10.1, 10)
	write(filepath.Join(base, "c"), 12, 12.1, 11.9, 12, 12.2)
	var out bytes.Buffer
	if ok, err := agreeDirs(spec, filepath.Join(base, "a"), filepath.Join(base, "b"), &out); err != nil || !ok {
		t.Errorf("equal sets: ok=%v err=%v\n%s", ok, err, out.String())
	}
	out.Reset()
	if ok, err := agreeDirs(spec, filepath.Join(base, "a"), filepath.Join(base, "c"), &out); err != nil || ok {
		t.Errorf("shifted set: ok=%v err=%v\n%s", ok, err, out.String())
	}
}
