// Command benchdiff is the decision step of the same-runner A/B perf gate
// (scripts/abgate.sh):
//
//	go run ./cmd/benchdiff <base-dir> <head-dir>
//
// Each directory holds one <workload>.<pair>.json per bench/run.sh run,
// its last line of standard output; equal names in the two directories
// ran back to back on one machine. For every end-to-end metric in
// BENCHMARK.json, and alloc_mb, it prints a markdown table row and
// exits 1 on a regression: the head worse in nine tenths of the pairs by
// a median change above the base runs' own quartile spread, alloc_mb
// above allocBound, any correct:false run, or a higher failed share on
// the head. A metric only one side reports is listed, never failed. It
// exits 2 when it cannot read its inputs.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// allocBound is how much alloc_mb, read from one traced run per side, may
// grow. Two traced cold-suite runs of identical code read 267.63 and
// 267.68 MiB/op, so 3% is far above the noise.
const allocBound = 0.03

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: benchdiff <base-dir> <head-dir>")
		return 2
	}
	gates, err := readSpec("BENCHMARK.json")
	var base, head runs
	if err == nil {
		base, err = readRuns(args[0])
	}
	if err == nil {
		head, err = readRuns(args[1])
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	rows, failures := diff(gates, base, head)
	writeTable(stdout, rows, failures)
	if len(failures) > 0 {
		return 1
	}
	return 0
}

// gate is one metric the gate decides on.
type gate struct {
	name         string
	higherBetter bool
	paired       bool // decided on the pairs; false for alloc_mb's fixed bound
}

// readSpec returns the gated metrics BENCHMARK.json declares.
func readSpec(path string) ([]gate, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	type metric struct{ Name, Better string }
	var d struct {
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(d.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: no end_to_end metrics", path)
	}
	var gates []gate
	for _, m := range d.EndToEnd {
		gates = append(gates, gate{m.Name, m.Better == "higher", true})
	}
	for _, m := range d.PerLayer {
		if m.Name == "alloc_mb" {
			gates = append(gates, gate{m.Name, m.Better == "higher", false})
		}
	}
	return gates, nil
}

// result is one bench/run.sh result line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
}

// runs maps a workload to its results by pair name.
type runs map[string]map[string]result

// readRuns reads every <workload>.<pair>.json file in dir. A file that
// holds no result line, such as the empty output of a run that crashed,
// is an error: skipping it could pass a broken head.
func readRuns(dir string) (runs, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no result files", dir)
	}
	out := runs{}
	for _, f := range files {
		wl, pair, ok := strings.Cut(strings.TrimSuffix(filepath.Base(f), ".json"), ".")
		if !ok {
			return nil, fmt.Errorf("%s: name is not <workload>.<pair>.json", f)
		}
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: not a result line: %w", f, err)
		}
		if out[wl] == nil {
			out[wl] = map[string]result{}
		}
		out[wl][pair] = r
	}
	return out, nil
}

// row is one line of the table. change is the median per-pair change and
// threshold the bound it is held to, both as fractions; NaN shows as "-".
type row struct {
	workload, metric, base, head, verdict string
	change, threshold                     float64
	worse, pairs                          int
}

// diff decides every workload and gated metric, and returns the table
// rows and one line per reason the gate fails.
func diff(gates []gate, base, head runs) ([]row, []string) {
	var rows []row
	var failures []string
	all := runs{}
	for wl := range base {
		all[wl] = nil
	}
	for wl := range head {
		all[wl] = nil
	}
	for _, wl := range sortedKeys(all) {
		for _, g := range gates {
			r, ok := decide(g, base[wl], head[wl])
			if !ok {
				continue
			}
			r.workload = wl
			if r.verdict == "REGRESSION" {
				failures = append(failures, fmt.Sprintf("%s %s: head worse in %d/%d pairs, median change %+.1f%%, threshold %.1f%%",
					wl, g.name, r.worse, r.pairs, 100*r.change, 100*r.threshold))
			}
			rows = append(rows, r)
		}
		var failed, attempted [2]int
		for i, rs := range []map[string]result{base[wl], head[wl]} {
			for _, pair := range sortedKeys(rs) {
				failed[i] += rs[pair].Failed
				attempted[i] += rs[pair].Attempted
				if !rs[pair].Correct {
					failures = append(failures, fmt.Sprintf("%s run %s.%s reported correct:false", [2]string{"base", "head"}[i], wl, pair))
				}
			}
		}
		r := row{workload: wl, metric: "failed/attempted", verdict: "ok", change: math.NaN(), threshold: math.NaN(),
			base: fmt.Sprintf("%d/%d", failed[0], attempted[0]), head: fmt.Sprintf("%d/%d", failed[1], attempted[1])}
		if failed[1]*attempted[0] > failed[0]*attempted[1] {
			r.verdict = "REGRESSION"
			failures = append(failures, fmt.Sprintf("%s: head failed %s operations, base %s", wl, r.head, r.base))
		}
		rows = append(rows, r)
	}
	return rows, failures
}

// decide compares one metric of one workload; ok is false when neither
// side reports it. A pair's change is head over base, inverted where
// higher is better, so above 1 is worse.
func decide(g gate, base, head map[string]result) (r row, ok bool) {
	bv, hv := values(base, g.name), values(head, g.name)
	r = row{metric: g.name, base: fmtMedian(bv), head: fmtMedian(hv), verdict: "ok", change: math.NaN(), threshold: math.NaN()}
	switch {
	case len(bv) == 0 && len(hv) == 0:
		return r, false
	case len(bv) == 0:
		r.verdict = "new"
		return r, true
	case len(hv) == 0:
		r.verdict = "removed"
		return r, true
	}
	var changes []float64
	for _, pair := range sortedKeys(base) {
		b, inBase := base[pair].Metrics[g.name]
		h, inHead := head[pair].Metrics[g.name]
		if !inBase || !inHead {
			continue
		}
		c := 1.0
		if b.Value != h.Value {
			c = h.Value / b.Value
			if g.higherBetter {
				c = b.Value / h.Value
			}
		}
		changes = append(changes, c)
		if c > 1 {
			r.worse++
		}
	}
	if r.pairs = len(changes); r.pairs == 0 {
		return r, true
	}
	r.change = quantile(changes, 0.5) - 1
	if !g.paired {
		r.threshold = allocBound
		if r.change > allocBound {
			r.verdict = "REGRESSION"
		}
		return r, true
	}
	r.threshold = 0
	if m := quantile(bv, 0.5); m != 0 {
		r.threshold = (quantile(bv, 0.75) - quantile(bv, 0.25)) / m
	}
	if 10*r.worse >= 9*r.pairs && r.change > r.threshold {
		r.verdict = "REGRESSION"
	}
	return r, true
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// values returns a metric's value in every run that reports it.
func values(rs map[string]result, name string) []float64 {
	var vs []float64
	for _, pair := range sortedKeys(rs) {
		if m, ok := rs[pair].Metrics[name]; ok {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

// quantile is the q-quantile of xs by the exclusive method of Python's
// statistics.quantiles, which bench -agree's spreads use; its 0.5 is the
// median.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	h := q * float64(len(s)+1)
	j := min(max(int(h), 1), len(s)-1)
	if h == float64(j) || s[j-1] == s[j] {
		return s[j-1] // no interpolation, which an infinite change would turn into NaN
	}
	return s[j-1] + (h-float64(j))*(s[j]-s[j-1])
}

func fmtMedian(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	return fmt.Sprintf("%.4g", quantile(xs, 0.5))
}

// writeTable renders the markdown table and the verdict.
func writeTable(w io.Writer, rows []row, failures []string) {
	pct := func(v float64) string {
		if math.IsNaN(v) {
			return "-"
		}
		return fmt.Sprintf("%+.1f%%", 100*v)
	}
	fmt.Fprintln(w, "| workload | metric | base median | head median | change (+ is worse) | pairs worse | threshold | verdict |")
	fmt.Fprintln(w, "|---|---|---:|---:|---:|---:|---:|---|")
	for _, r := range rows {
		worse := "-"
		if r.pairs > 0 {
			worse = fmt.Sprintf("%d/%d", r.worse, r.pairs)
		}
		fmt.Fprintf(w, "| %s | %s | %s | %s | %s | %s | %s | %s |\n",
			r.workload, r.metric, r.base, r.head, pct(r.change), worse, pct(r.threshold), r.verdict)
	}
	fmt.Fprintln(w)
	for _, f := range failures {
		fmt.Fprintln(w, "FAIL:", f)
	}
	if len(failures) == 0 {
		fmt.Fprintln(w, "PASS: no regression")
	}
}
