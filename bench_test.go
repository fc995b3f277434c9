package anycastctx

// The benchmark harness regenerates every table and figure in the paper's
// evaluation: one benchmark per artifact, each running the registered
// experiment against a shared world. Run with:
//
//	go test -bench=. -benchmem
//
// Benchmarks measure the analysis pipelines (catchment joins, inflation
// computation, amortization), not world construction, which happens once.

import (
	"context"
	"io"
	"runtime"
	"sync"
	"testing"

	"anycastctx/internal/ditl"
	"anycastctx/internal/stage"
	"anycastctx/internal/world"
)

var (
	benchWorld     *World
	benchWorldOnce sync.Once
	benchWorldErr  error
)

// benchScale is the world scale benchmarks run at. ANYCASTCTX_TEST_SCALE
// overrides it (CI's benchmark smoke step passes 0.05); the default 0.2 is
// the scale the per-experiment allocation figures in ROADMAP.md were
// measured at.
func benchScale() float64 {
	return world.ScaleFromEnv(0.2)
}

func getBenchWorld(b *testing.B) *World {
	b.Helper()
	benchWorldOnce.Do(func() {
		benchWorld, benchWorldErr = BuildWorld(Config{Seed: 1, Scale: benchScale()})
		if benchWorldErr == nil {
			// Materialize every stage up front: experiment benchmarks
			// measure experiment compute, not first-touch stage builds
			// (bench/'s cold-suite and warm-start workloads own those).
			benchWorldErr = benchWorld.Demand(context.Background(), stage.All()...)
		}
	})
	if benchWorldErr != nil {
		b.Fatal(benchWorldErr)
	}
	return benchWorld
}

// benchExperiment runs one registered experiment b.N times and reports the
// headline measurement once.
func benchExperiment(b *testing.B, id string) {
	w := getBenchWorld(b)
	b.ResetTimer()
	var res Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = RunExperimentCtx(context.Background(), w, id)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(res.Output)), "output_bytes")
	if testing.Verbose() {
		b.Logf("%s measured: %s", id, res.Measured)
	}
}

func BenchmarkFig1RingsMap(b *testing.B)             { benchExperiment(b, "fig1") }
func BenchmarkFig2aGeoInflation(b *testing.B)        { benchExperiment(b, "fig2a") }
func BenchmarkFig2bLatencyInflation(b *testing.B)    { benchExperiment(b, "fig2b") }
func BenchmarkFig3QueriesPerUser(b *testing.B)       { benchExperiment(b, "fig3") }
func BenchmarkFig4aRingLatency(b *testing.B)         { benchExperiment(b, "fig4a") }
func BenchmarkFig4bRingDeltas(b *testing.B)          { benchExperiment(b, "fig4b") }
func BenchmarkFig5aCDNGeoInflation(b *testing.B)     { benchExperiment(b, "fig5a") }
func BenchmarkFig5bCDNLatencyInflation(b *testing.B) { benchExperiment(b, "fig5b") }
func BenchmarkFig6aASPathLengths(b *testing.B)       { benchExperiment(b, "fig6a") }
func BenchmarkFig6bPathLenVsInflation(b *testing.B)  { benchExperiment(b, "fig6b") }
func BenchmarkFig7aLatencyEfficiency(b *testing.B)   { benchExperiment(b, "fig7a") }
func BenchmarkFig7bCoverage(b *testing.B)            { benchExperiment(b, "fig7b") }
func BenchmarkFig8InvalidTLDs(b *testing.B)          { benchExperiment(b, "fig8") }
func BenchmarkFig9NoSlash24Join(b *testing.B)        { benchExperiment(b, "fig9") }
func BenchmarkFig10FavoriteSite(b *testing.B)        { benchExperiment(b, "fig10") }
func BenchmarkFig11DITL2020(b *testing.B)            { benchExperiment(b, "fig11") }
func BenchmarkFig12ResolverLatency(b *testing.B)     { benchExperiment(b, "fig12") }
func BenchmarkFig13RootLatencyShare(b *testing.B)    { benchExperiment(b, "fig13") }
func BenchmarkFig14LatencyMap(b *testing.B)          { benchExperiment(b, "fig14") }
func BenchmarkTable1Survey(b *testing.B)             { benchExperiment(b, "tab1") }
func BenchmarkTables23Datasets(b *testing.B)         { benchExperiment(b, "tab23") }
func BenchmarkTable4Overlap(b *testing.B)            { benchExperiment(b, "tab4") }
func BenchmarkTable5RedundantTrace(b *testing.B)     { benchExperiment(b, "tab5") }
func BenchmarkAppendixCPageRTTs(b *testing.B)        { benchExperiment(b, "appc") }
func BenchmarkLocalPerspective(b *testing.B)         { benchExperiment(b, "local") }

// Hot-path benchmarks: the per-entity-stream loops that fan out under
// internal/par (campaign assembly, capture emission, ping sampling). Each
// has a Serial twin pinned to GOMAXPROCS(1): run both on one machine to
// decide whether a fan-out pays there. The outputs are byte-identical
// between the twins — that contract is tested in parallel_test.go; here
// we only measure.

// withProcs runs fn under GOMAXPROCS(n) and restores the old value.
func withProcs(n int, fn func()) {
	prev := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(prev)
	fn()
}

func benchCampaignAssembly(b *testing.B) {
	w := getBenchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ditl.Build(context.Background(), w.Graph(), w.Letters(), w.Pop(),
			w.Zone(), w.Rates(), w.Model(), ditl.Config{}, w.Cfg.Seed); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCampaignAssembly(b *testing.B) { benchCampaignAssembly(b) }
func BenchmarkCampaignAssemblySerial(b *testing.B) {
	withProcs(1, func() { benchCampaignAssembly(b) })
}

func benchCaptureEmission(b *testing.B) {
	w := getBenchWorld(b)
	li, site := busiestLetterSite(w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Campaign().EmitSiteCapture(io.Discard, li, site, 5000, 7); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCaptureEmission(b *testing.B) { benchCaptureEmission(b) }
func BenchmarkCaptureEmissionSerial(b *testing.B) {
	withProcs(1, func() { benchCaptureEmission(b) })
}

func benchPingSampling(b *testing.B) {
	w := getBenchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := w.Atlas().Ping(w.Letters()[0], 3, 11); len(res) == 0 {
			b.Fatal("no ping results")
		}
	}
}

func BenchmarkPingSampling(b *testing.B) { benchPingSampling(b) }
func BenchmarkPingSamplingSerial(b *testing.B) {
	withProcs(1, func() { benchPingSampling(b) })
}

// Ablation benchmarks: the design-choice sweeps DESIGN.md calls out.

func BenchmarkAblationDeploymentSize(b *testing.B)   { benchExperiment(b, "abl-size") }
func BenchmarkAblationPeeringBreadth(b *testing.B)   { benchExperiment(b, "abl-peering") }
func BenchmarkAblationRoutingBaselines(b *testing.B) { benchExperiment(b, "abl-routing") }
func BenchmarkAblationLetterPreference(b *testing.B) { benchExperiment(b, "abl-tau") }
func BenchmarkAblationLocalRoot(b *testing.B)        { benchExperiment(b, "abl-localroot") }

// Companion studies: §8 site affinity and §7.3 growth.

func BenchmarkSiteAffinity(b *testing.B)       { benchExperiment(b, "affinity") }
func BenchmarkDeploymentGrowth(b *testing.B)   { benchExperiment(b, "growth") }
func BenchmarkRegulatoryRings(b *testing.B)    { benchExperiment(b, "apps") }
func BenchmarkContinentBreakdown(b *testing.B) { benchExperiment(b, "continents") }
