package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// declaration is the part of BENCHMARK.json the benchmark reads back.
type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readDeclaration(path string) (declaration, error) {
	var d declaration
	b, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(b, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// readResults reads every <workload>.<anything>.json file in dir, each the
// standard output of one untraced run, and returns the values of each
// end-to-end metric per workload.
func readResults(dir string) (map[string]map[string][]float64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string]map[string][]float64{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var last []byte
		sc := bufio.NewScanner(bytes.NewReader(b))
		for sc.Scan() {
			if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
				last = append(last[:0], line...)
			}
		}
		var res result
		if err := json.Unmarshal(last, &res); err != nil {
			return nil, fmt.Errorf("%s: last line is not a result: %w", f, err)
		}
		wl, _, _ := strings.Cut(filepath.Base(f), ".")
		if out[wl] == nil {
			out[wl] = map[string][]float64{}
		}
		for name, m := range res.Metrics {
			out[wl][name] = append(out[wl][name], m.Value)
		}
	}
	return out, nil
}

// quartiles returns the quartiles of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// median is Python's statistics.median.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// agreeDirs compares two sets of runs of one commit: per workload and
// end-to-end metric it prints each side's median and quartiles, the
// spread (quartile distance over median) and whether the medians agree
// within the metric's bound. It reports false when a pair of medians
// disagrees, a metric is missing, or a spread other than setup_s is
// wider than the bound.
func agreeDirs(specPath, dirA, dirB string, w io.Writer) (bool, error) {
	d, err := readDeclaration(specPath)
	if err != nil {
		return false, err
	}
	a, err := readResults(dirA)
	if err != nil {
		return false, err
	}
	b, err := readResults(dirB)
	if err != nil {
		return false, err
	}
	ok := true
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tn\tA q1\tA median\tA q3\tA spread\tB q1\tB median\tB q3\tB spread\tdelta\tbound\tverdict\t")
	for _, wl := range d.Workloads {
		for _, em := range d.EndToEnd {
			xa, xb := a[wl.Name][em.Name], b[wl.Name][em.Name]
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%s\t%d/%d\t\t\t\t\t\t\t\t\t\t%.2f\tmissing\t\n", wl.Name, em.Name, em.Unit, len(xa), len(xb), em.Bound)
				ok = false
				continue
			}
			a1, _, a3 := quartiles(xa)
			b1, _, b3 := quartiles(xb)
			ma, mb := median(xa), median(xb)
			sa, sb := ratio(a3-a1, ma), ratio(b3-b1, mb)
			delta := ratio(mb-ma, ma)
			verdict := "agree"
			switch {
			case math.Abs(delta) > em.Bound:
				verdict = "DISAGREE"
			case em.Name != "setup_s" && (sa > em.Bound || sb > em.Bound):
				verdict = "TOO NOISY"
			}
			if verdict != "agree" {
				ok = false
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d/%d\t%.4g\t%.4g\t%.4g\t%.1f%%\t%.4g\t%.4g\t%.4g\t%.1f%%\t%+.1f%%\t%.0f%%\t%s\t\n",
				wl.Name, em.Name, em.Unit, len(xa), len(xb), a1, ma, a3, 100*sa, b1, mb, b3, 100*sb, 100*delta, 100*em.Bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return false, err
	}
	return ok, nil
}
