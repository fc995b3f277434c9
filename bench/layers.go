package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"anycastctx"
	"anycastctx/internal/bgp"
	"anycastctx/internal/core"
	"anycastctx/internal/ditl"
	"anycastctx/internal/geo"
	"anycastctx/internal/obs"
	"anycastctx/internal/scenario"
	"anycastctx/internal/stage"
	"anycastctx/internal/topology"
)

// selfLayers are the span-name prefixes self time is reported for: the
// program's own span families, and "bench" for the benchmark's wrappers
// and probes. A span under any other prefix counts toward "bench".
var selfLayers = []string{"bench", "world", "experiment", "scenario", "bgp", "ditl", "cdn", "dnssim"}

// tracedRun is the -trace 1 run: an untraced pass of the workload, then a
// traced pass followed by the census and the layer probes.
type tracedRun struct {
	plain, traced *measurement
	probes        map[string]float64
	self          map[string]float64
	wallMs        float64 // the traced pass, census and probes
}

// traceWorkload runs wl untraced and then traced, each for half the
// measured window with one set-up, and writes the traced part's spans to
// traceOut as a Chrome trace.
func traceWorkload(ctx context.Context, wl workload, opt options, traceOut string) (*tracedRun, error) {
	opt.seconds /= 2
	plain, err := measure(ctx, wl, opt, 1)
	if err != nil {
		return nil, err
	}
	obs.Reset()
	obs.Enable()
	defer obs.Disable()
	ctx, root := obs.StartSpanCtx(ctx, "bench."+wl.name)
	tr := &tracedRun{plain: plain}
	tr.traced, err = measure(ctx, wl, opt, 1)
	if err == nil && tr.traced.world == nil {
		err = fmt.Errorf("no world to probe: every operation failed")
	}
	if err == nil {
		tr.traced.census(ctx)
		tr.probes, err = probe(ctx, tr.traced.world, opt.seed)
	}
	root.End()
	if err != nil {
		return nil, err
	}
	rec, _ := root.Record()
	tr.wallMs = ms(time.Duration(rec.WallNs))
	tr.self = selfTimes(obs.Spans())
	if err := writeChromeTrace(traceOut); err != nil {
		return nil, err
	}
	return tr, nil
}

func writeChromeTrace(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// census runs, once each on the pass's world, the experiments and
// scenarios the workload itself did not run, so that every workload's
// traced run reports the same per-layer metrics.
func (m *measurement) census(ctx context.Context) {
	ctx, span := obs.StartSpanCtx(ctx, "bench.census")
	defer span.End()
	if len(m.expMs) == 0 {
		for _, e := range anycastctx.Experiments() {
			_, _, err := m.timedExperiment(ctx, m.world, e.ID)
			m.check(err == nil, "census: experiment %s: %v", e.ID, err)
		}
	}
	if len(m.evalMs) == 0 {
		base := scenario.NewBaseline(m.world)
		for _, s := range scenario.Builtins() {
			_, _, _, err := m.evalReport(ctx, base, s)
			m.check(err == nil, "census: scenario %s: %v", s.Name, err)
		}
	}
}

// probeTime is how long each repeated probe runs.
const probeTime = 50 * time.Millisecond

// sink keeps probed results live so the compiler cannot drop the calls.
var sink float64

// perCall runs fn, which makes n calls, until probeTime has passed and
// returns the nanoseconds per call.
func perCall(n int, fn func()) float64 {
	start := time.Now()
	calls := 0
	for calls == 0 || time.Since(start) < probeTime {
		fn()
		calls += n
	}
	return float64(time.Since(start).Nanoseconds()) / float64(calls)
}

// medianMs times fn three times and returns the median in milliseconds.
func medianMs(fn func()) float64 {
	var xs []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		fn()
		xs = append(xs, ms(time.Since(t)))
	}
	return quantile(xs, 0.5)
}

// probe times single-layer calls directly on a built world, over inputs
// sampled from seed. These are the layers the traced spans cannot see
// into: geo, topology, anycastnet and core have no spans of their own.
func probe(ctx context.Context, w *anycastctx.World, seed int64) (map[string]float64, error) {
	out := map[string]float64{}
	rng := rand.New(rand.NewSource(seed))
	g := w.Graph()
	recs := w.Pop().Recursives
	const sample = 2048
	locs := make([]geo.Coord, sample)
	ases := make([]topology.ASN, sample)
	peers := make([]topology.ASN, sample)
	for i := range locs {
		locs[i] = recs[rng.Intn(len(recs))].Loc
		ases[i] = g.All()[rng.Intn(g.Len())]
		peers[i] = g.All()[rng.Intn(g.Len())]
	}
	span := func(name string) func() {
		_, sp := obs.StartSpanCtx(ctx, "bench.probe."+name)
		return sp.End
	}

	end := span("geo")
	out["geo.distance_ns"] = perCall(sample, func() {
		for i := range locs {
			sink += geo.DistanceKm(locs[i], locs[(i+1)%sample])
		}
	})
	end()

	end = span("topology")
	out["topology.peered_ns"] = perCall(sample, func() {
		for i := range ases {
			if g.Peered(ases[i], peers[i]) {
				sink++
			}
		}
	})
	out["topology.nearest_presence_ns"] = perCall(sample, func() {
		for i := range ases {
			_, d := g.AS(ases[i]).NearestPresence(locs[i])
			sink += d
		}
	})
	end()

	end = span("anycastnet")
	letters := w.Letters()
	out["anycastnet.closest_site_ns"] = perCall(sample*len(letters), func() {
		for _, d := range letters {
			for _, loc := range locs {
				_, km := d.ClosestGlobalSite(loc)
				sink += km
			}
		}
	})
	end()

	// A fresh resolver for the first letter, so every route resolves once
	// cold and then hits the cache.
	end = span("bgp")
	srcs := ditl.UniqueSources(w.Pop())
	res, err := bgp.NewResolver(g, letters[0].Sites)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	for _, src := range srcs {
		res.Route(src)
	}
	out["bgp.route_cold_us"] = float64(time.Since(t).Nanoseconds()) / 1e3 / float64(len(srcs))
	out["bgp.route_hit_ns"] = perCall(len(srcs), func() {
		for _, src := range srcs {
			if _, ok := res.Route(src); ok {
				sink++
			}
		}
	})
	end()

	end = span("core")
	camp, join := w.Campaign(), w.JoinCtx(ctx)
	out["core.geo_inflation_ms"] = medianMs(func() {
		sink += float64(len(core.GeoInflationAllRoots(camp, join)))
	})
	end()

	end = span("cdn")
	locations := w.Locations()
	out["cdn.server_logs_ms"] = medianMs(func() {
		sink += float64(len(w.CDN().ServerSideLogsCtx(ctx, locations, seed)))
	})
	out["cdn.client_rows_ms"] = medianMs(func() {
		sink += float64(len(w.CDN().ClientMeasurementsCtx(ctx, locations, seed)))
	})
	end()

	end = span("ditl")
	out["ditl.build_ms"] = medianMs(func() {
		if _, e := ditl.Build(ctx, g, letters, w.Pop(), w.Zone(), w.Rates(), w.Model(), ditl.Config{}, seed); e != nil {
			err = e
		}
	})
	if err != nil {
		return nil, err
	}
	pairs, err := capturePairs(camp, seed, 3)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	var emitMs, sumMs []float64
	for _, p := range pairs {
		_, _, emitD, sumD, err := emitAndSummarize(ctx, camp, &buf, p, seed)
		if err != nil {
			return nil, err
		}
		emitMs, sumMs = append(emitMs, ms(emitD)), append(sumMs, ms(sumD))
	}
	out["ditl.emit_ms"] = quantile(emitMs, 0.5)
	out["ditl.summarize_ms"] = quantile(sumMs, 0.5)
	end()
	return out, nil
}

// selfTimes splits the time the spans cover among the span-name prefixes
// of selfLayers, in milliseconds. At each instant the time goes to the
// innermost open spans — those with no open child — shared equally when
// parallel workers hold several open, so the layers sum to the covered
// wall time instead of double-counting parallel work.
func selfTimes(spans []obs.SpanRecord) map[string]float64 {
	type event struct {
		t     int64
		i     int
		start bool
	}
	var evs []event
	for i, s := range spans {
		if s.Done() {
			evs = append(evs, event{s.StartNs, i, true}, event{s.StartNs + s.WallNs, i, false})
		}
	}
	sort.SliceStable(evs, func(a, b int) bool {
		if evs[a].t != evs[b].t {
			return evs[a].t < evs[b].t
		}
		return !evs[a].start && evs[b].start
	})
	out := map[string]float64{}
	for _, l := range selfLayers {
		out[l] = 0
	}
	open := map[int]bool{}
	openChildren := make([]int, len(spans))
	var inner []int
	var last int64
	for _, e := range evs {
		if dt := e.t - last; dt > 0 && len(open) > 0 {
			inner = inner[:0]
			for i := range open {
				if openChildren[i] == 0 {
					inner = append(inner, i)
				}
			}
			share := float64(dt) / 1e6 / float64(len(inner))
			for _, i := range inner {
				out[layerOf(spans[i].Name)] += share
			}
		}
		last = e.t
		parent := int(spans[e.i].Parent) - 1 // span IDs are 1-based start-order indexes
		if e.start {
			open[e.i] = true
			if open[parent] {
				openChildren[parent]++
			}
		} else {
			delete(open, e.i)
			if open[parent] {
				openChildren[parent]--
			}
		}
	}
	return out
}

func layerOf(span string) string {
	prefix, _, _ := strings.Cut(span, ".")
	for _, l := range selfLayers {
		if l == prefix {
			return l
		}
	}
	return "bench"
}

// result is the traced run's result: the per-layer metrics. Counts are
// per operation of the traced pass's measured loop, so they do not grow
// with how many operations fit in the window.
func (tr *tracedRun) result() result {
	m := tr.traced
	mt := map[string]metric{}
	put := func(name, unit string, v float64) { mt[name] = metric{v, unit} }
	ops := float64(len(m.opMs))
	delta := func(counter string) float64 {
		return float64(m.after.Counters[counter] - m.before.Counters[counter])
	}
	perOp := func(counter string) float64 { return ratio(delta(counter), ops) }

	for _, id := range stage.All() {
		put("world."+string(id)+".ms", "ms", quantile(m.stageMs[id], 0.5))
	}
	put("artifact.hit_ratio", "ratio", ratio(float64(m.loaded), float64(m.persisted)))
	put("artifact.loaded_mb", "MiB", ratio(float64(m.loadedBytes)/(1<<20), float64(m.builds)))
	for _, e := range anycastctx.Experiments() {
		put("experiment."+e.ID+".ms", "ms", quantile(m.expMs[e.ID], 0.5))
	}

	hits, misses := delta("bgp.route_cache_hits"), delta("bgp.route_cache_misses")
	put("bgp.routes_resolved", "count/op", perOp("bgp.routes_resolved"))
	put("bgp.route_cache_hits", "count/op", ratio(hits, ops))
	put("bgp.route_cache_misses", "count/op", ratio(misses, ops))
	put("bgp.cache_hit_ratio", "ratio", ratio(hits, hits+misses))
	put("bgp.route_cache_seeded", "count/op", perOp("bgp.route_cache_seeded"))
	put("bgp.route_cold_us", "us", tr.probes["bgp.route_cold_us"])
	put("bgp.route_hit_ns", "ns", tr.probes["bgp.route_hit_ns"])
	put("topology.peered_ns", "ns", tr.probes["topology.peered_ns"])
	put("topology.nearest_presence_ns", "ns", tr.probes["topology.nearest_presence_ns"])
	put("geo.distance_ns", "ns", tr.probes["geo.distance_ns"])
	put("anycastnet.closest_site_ns", "ns", tr.probes["anycastnet.closest_site_ns"])
	put("core.geo_inflation_ms", "ms", tr.probes["core.geo_inflation_ms"])

	put("cdn.server_logs_ms", "ms", tr.probes["cdn.server_logs_ms"])
	put("cdn.client_rows_ms", "ms", tr.probes["cdn.client_rows_ms"])
	put("cdn.server_log_rows", "count/op", perOp("cdn.server_log_rows"))
	put("cdn.client_measurement_rows", "count/op", perOp("cdn.client_measurement_rows"))
	put("dnssim.user_queries", "count/op", perOp("dnssim.user_queries"))
	put("dnssim.cache_hit_ratio", "ratio", ratio(delta("dnssim.cache_hits"), delta("dnssim.user_queries")))

	put("ditl.build_ms", "ms", tr.probes["ditl.build_ms"])
	put("ditl.emit_ms", "ms", tr.probes["ditl.emit_ms"])
	put("ditl.summarize_ms", "ms", tr.probes["ditl.summarize_ms"])
	put("ditl.pcap_packets", "count/op", perOp("ditl.pcap_packets"))
	reassembled := delta("ditl.rebase_recursives_reassembled")
	put("ditl.rebase_share", "ratio", ratio(reassembled, float64(len(m.world.Pop().Recursives))*delta("ditl.campaigns_rebased")))
	put("pcapio.records_read", "count/op", perOp("pcapio.records_read"))
	put("pcapio.reader_resyncs", "count/op", perOp("pcapio.reader_resyncs"))
	put("dnswire.messages_decoded", "count/op", perOp("dnswire.messages_decoded"))
	put("dnswire.decode_errors", "count/op", perOp("dnswire.decode_errors"))

	for _, s := range scenario.Builtins() {
		put("scenario.eval_ms."+s.Name, "ms", quantile(m.evalMs[s.Name], 0.5))
		put("scenario.report_ms."+s.Name, "ms", quantile(m.reportMs[s.Name], 0.5))
	}
	put("scenario.recursives_affected", "count/op", ratio(reassembled, ops))

	put("alloc_mb", "MiB/op", ratio(float64(m.memAfter.TotalAlloc-m.memBefore.TotalAlloc)/(1<<20), ops))
	put("gc_pause_ms", "ms/op", ratio(float64(m.memAfter.PauseTotalNs-m.memBefore.PauseTotalNs)/1e6, ops))
	for _, l := range selfLayers {
		put("self_ms."+l, "ms", tr.self[l])
	}
	plainRate := tr.plain.endToEnd().Metrics["ops_per_s"].Value
	tracedRate := m.endToEnd().Metrics["ops_per_s"].Value
	put("trace_overhead_pct", "%", 100*(ratio(plainRate, tracedRate)-1))

	return result{
		Correct:   tr.plain.failed+m.failed == 0,
		Attempted: tr.plain.attempted + m.attempted,
		Failed:    tr.plain.failed + m.failed,
		Metrics:   mt,
	}
}

// ratio is a/b, or 0 when b is 0, so every reported value stays finite.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
