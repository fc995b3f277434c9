package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// OpenMetricsContentType is the content type of WriteOpenMetrics output,
// as required by the OpenMetrics exposition spec.
const OpenMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// WriteOpenMetrics renders every registered metric in OpenMetrics text
// exposition format (scrapeable by Prometheus): counters as `<name>_total`,
// gauges verbatim, and histograms as cumulative `le` buckets plus `_sum`
// and `_count`, terminated by `# EOF`. Metric names have their dot scoping
// mapped to underscores ("bgp.route_cache_hits" → "bgp_route_cache_hits").
// The write is read-only against the race-safe registry: values are read
// with the same atomics the pipeline updates, so scraping a live run never
// perturbs it.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	// Snapshot the handle lists under the registry lock; values are then
	// read atomically per sample.
	r.mu.Lock()
	counters := append([]*Counter(nil), r.counters...)
	gauges := append([]*Gauge(nil), r.gauges...)
	hists := append([]*Histogram(nil), r.hists...)
	r.mu.Unlock()

	sort.Slice(counters, func(i, j int) bool { return counters[i].name < counters[j].name })
	sort.Slice(gauges, func(i, j int) bool { return gauges[i].name < gauges[j].name })
	sort.Slice(hists, func(i, j int) bool { return hists[i].name < hists[j].name })

	bw := bufio.NewWriter(w)
	for _, c := range counters {
		name := sanitizeMetricName(c.name)
		fmt.Fprintf(bw, "# TYPE %s counter\n", name)
		fmt.Fprintf(bw, "%s_total %d\n", name, c.Value())
	}
	for _, g := range gauges {
		name := sanitizeMetricName(g.name)
		fmt.Fprintf(bw, "# TYPE %s gauge\n", name)
		fmt.Fprintf(bw, "%s %s\n", name, formatOMValue(g.Value()))
	}
	for _, h := range hists {
		name := sanitizeMetricName(h.name)
		fmt.Fprintf(bw, "# TYPE %s histogram\n", name)
		count := h.Count()
		for _, b := range h.Buckets() {
			fmt.Fprintf(bw, "%s_bucket{le=\"%s\"} %d\n", name, formatOMValue(b.UpperBound), b.Count)
		}
		fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", name, count)
		sum := h.Sum()
		if count == 0 {
			sum = 0 // an empty histogram's sum reads 0, not an absent sample
		}
		fmt.Fprintf(bw, "%s_sum %s\n", name, formatOMValue(sum))
		fmt.Fprintf(bw, "%s_count %d\n", name, count)
	}
	fmt.Fprint(bw, "# EOF\n")
	return bw.Flush()
}

// sanitizeMetricName maps a registry metric name onto the OpenMetrics
// name charset [a-zA-Z0-9_:], with a non-digit first character.
func sanitizeMetricName(name string) string {
	var sb strings.Builder
	sb.Grow(len(name))
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':':
			sb.WriteRune(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				sb.WriteByte('_')
			}
			sb.WriteRune(c)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// formatOMValue renders a float sample the way OpenMetrics expects
// (shortest round-trip representation; explicit +Inf/-Inf/NaN spellings).
func formatOMValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
