package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"anycastctx"
	"anycastctx/internal/check"
	"anycastctx/internal/ditl"
	"anycastctx/internal/obs"
	"anycastctx/internal/scenario"
	"anycastctx/internal/stage"
)

// workload is one set of inputs the benchmark runs. Each runs in a closed
// loop with one client: the next operation starts when the previous one
// returns, on the calling goroutine, so the only parallelism is the
// program's own fan-outs.
type workload struct {
	name  string
	scale float64
	run   func(ctx context.Context, m *measurement) error
}

var workloads = []workload{
	{"cold-suite", 0.5, coldSuite},
	{"warm-start", 1, warmStart},
	{"whatif", 0.5, whatIf},
	{"capture", 0.5, captureWorkload},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, wl := range workloads {
		names[i] = wl.name
	}
	return names
}

func workloadByName(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

// captureRecords caps every capture the capture workload emits, so each
// operation writes and reads back the same number of records.
const captureRecords = 4000

type options struct {
	seed    int64
	scale   float64 // 0 = the workload's own
	seconds float64
	workDir string
	log     io.Writer
}

// measurement is one pass of a workload: its set-up and operation times,
// its correctness tally, and the per-layer samples a traced run reports.
type measurement struct {
	opt    options
	cfg    anycastctx.Config
	setups int

	setupS  []float64
	opMs    []float64
	loopS   float64
	peakRSS uint64 // through set-up and the loop, before the output checks

	attempted, failed int

	// Per-layer samples: Demand time per stage over the worlds the
	// workload measures, artifact-store outcomes of those worlds, and
	// per-call times of the experiments and scenarios it ran.
	builds              int
	stageMs             map[stage.ID][]float64
	persisted, loaded   int
	loadedBytes         int64
	expMs               map[string][]float64
	evalMs, reportMs    map[string][]float64
	before, after       obs.Snapshot
	memBefore, memAfter runtime.MemStats

	// world is the workload's current world; after the pass, the one it
	// ended on, which a traced run probes.
	world *anycastctx.World
}

// measure runs one pass of wl, setting up its world setups times.
func measure(ctx context.Context, wl workload, opt options, setups int) (*measurement, error) {
	if opt.scale == 0 {
		opt.scale = wl.scale
	}
	m := &measurement{
		opt:      opt,
		cfg:      anycastctx.Config{Seed: opt.seed, Scale: opt.scale},
		setups:   setups,
		stageMs:  map[stage.ID][]float64{},
		expMs:    map[string][]float64{},
		evalMs:   map[string][]float64{},
		reportMs: map[string][]float64{},
	}
	start := time.Now()
	if err := wl.run(ctx, m); err != nil {
		return nil, err
	}
	if opt.log != nil {
		fmt.Fprintf(opt.log, "bench: %s: %d set-ups (median %.3f s), %d operations in a %.1f s loop (median %.3f ms), %d/%d failed, %.1f s in all\n",
			wl.name, len(m.setupS), quantile(m.setupS, 0.5), len(m.opMs), m.loopS, quantile(m.opMs, 0.5), m.failed, m.attempted,
			time.Since(start).Seconds())
	}
	return m, nil
}

// setup makes the workload's world m.setups times, timing each: a
// workload's set-up is the time until its world is ready, reported as the
// median, and m.world is the last one. Every set-up and every measured
// loop starts from a collected heap holding no earlier world, so neither
// pays for the garbage of the one before and peak memory does not depend
// on when that garbage happened to be collected.
func (m *measurement) setup(fn func() (*anycastctx.World, error)) error {
	for i := 0; i < m.setups; i++ {
		m.world = nil
		runtime.GC()
		t := time.Now()
		w, err := fn()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		m.setupS = append(m.setupS, time.Since(t).Seconds())
		m.world = w
	}
	return nil
}

// loop runs unit until opt.seconds have passed, always at least once, so
// the last unit may end past the window. Counter and allocation deltas
// are taken around the loop, and peak memory at its end, so output checks
// that run after it do not count. unit returns an error only when the
// workload cannot go on; a failed operation is counted instead.
func (m *measurement) loop(unit func() error) error {
	runtime.GC()
	m.before = obs.TakeSnapshot()
	runtime.ReadMemStats(&m.memBefore)
	start := time.Now()
	for n := 0; n == 0 || time.Since(start).Seconds() < m.opt.seconds; n++ {
		if err := unit(); err != nil {
			return err
		}
	}
	m.loopS = time.Since(start).Seconds()
	m.peakRSS = obs.PeakRSSBytes()
	runtime.ReadMemStats(&m.memAfter)
	m.after = obs.TakeSnapshot()
	return nil
}

// op records one operation: its time when it succeeded, a failure when
// it did not. It reports whether the operation succeeded.
func (m *measurement) op(d time.Duration, err error, what string) bool {
	m.check(err == nil, "%s: %v", what, err)
	if err != nil {
		return false
	}
	m.opMs = append(m.opMs, ms(d))
	return true
}

// check records one correctness check.
func (m *measurement) check(ok bool, format string, args ...any) {
	m.attempted++
	if !ok {
		m.fail(format, args...)
	}
}

// fail counts a failed operation or check and reports it on the log.
func (m *measurement) fail(format string, args ...any) {
	m.failed++
	if m.opt.log != nil {
		fmt.Fprintf(m.opt.log, "bench: FAILED: "+format+"\n", args...)
	}
}

// build makes a world from cfg and demands every stage in topological
// order, one Demand call per stage. With record set the per-stage times
// and artifact outcomes count toward the per-layer metrics.
func (m *measurement) build(ctx context.Context, cfg anycastctx.Config, record bool) (*anycastctx.World, error) {
	w, err := anycastctx.NewWorld(cfg)
	if err != nil {
		return nil, err
	}
	for _, id := range stage.All() {
		t := time.Now()
		if err := w.Demand(ctx, id); err != nil {
			return nil, err
		}
		if record {
			m.stageMs[id] = append(m.stageMs[id], ms(time.Since(t)))
		}
	}
	if record {
		m.builds++
		for _, st := range w.StageStatuses() {
			if st.Persisted && w.Store() != nil {
				m.persisted++
				if st.Outcome == "loaded" {
					m.loaded++
					m.loadedBytes += st.Bytes
				}
			}
		}
	}
	return w, nil
}

// runExperiment runs one registered experiment and returns the bytes a
// user reads from it.
func runExperiment(ctx context.Context, w *anycastctx.World, id string) (string, error) {
	res, err := anycastctx.RunExperimentCtx(ctx, w, id)
	return res.Measured + "\x00" + res.Output, err
}

// timedExperiment runs one experiment, recording its time when it
// succeeds.
func (m *measurement) timedExperiment(ctx context.Context, w *anycastctx.World, id string) (string, time.Duration, error) {
	t := time.Now()
	out, err := runExperiment(ctx, w, id)
	d := time.Since(t)
	if err == nil {
		m.expMs[id] = append(m.expMs[id], ms(d))
	}
	return out, d, err
}

// coldSuite is what a researcher pays for `experiments -run all`: each
// round builds a fresh world (the round's set-up) and runs every
// registered experiment serially on it. An operation is one round's
// suite of experiments; each experiment is checked for an error.
func coldSuite(ctx context.Context, m *measurement) error {
	var digests [][32]byte
	err := m.loop(func() error {
		m.world = nil
		runtime.GC()
		t := time.Now()
		w, err := m.build(ctx, m.cfg, true)
		if err != nil {
			return err
		}
		m.setupS = append(m.setupS, time.Since(t).Seconds())
		h := sha256.New()
		var suite time.Duration
		for _, e := range anycastctx.Experiments() {
			out, d, err := m.timedExperiment(ctx, w, e.ID)
			m.check(err == nil, "experiment %s: %v", e.ID, err)
			suite += d
			io.WriteString(h, out)
		}
		m.opMs = append(m.opMs, ms(suite))
		var sum [32]byte
		h.Sum(sum[:0])
		digests = append(digests, sum)
		m.world = w
		return nil
	})
	if err != nil {
		return err
	}
	for i := 1; i < len(digests); i++ {
		m.check(digests[i] == digests[0], "cold-suite: round %d output digest differs from round 1", i+1)
	}
	vs := check.Run(ctx, m.world)
	m.check(len(vs) == 0, "cold-suite: invariant checkers: %s", check.Render(vs, len(check.All())))
	return nil
}

// warmCheck lists the experiments whose output on a warm world must equal
// their output on the cold world that filled the store.
var warmCheck = []string{"fig2a", "fig5a", "tab4"}

// warmStart restarts from the artifact store: set-up fills a store with a
// cold build, then each operation is a fresh world on that store with
// every stage demanded, so persisted stages load instead of computing.
func warmStart(ctx context.Context, m *measurement) error {
	dir := filepath.Join(m.opt.workDir, fmt.Sprintf("store-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	cfg := m.cfg
	cfg.CacheDir = dir
	err := m.setup(func() (*anycastctx.World, error) {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		return m.build(ctx, cfg, false)
	})
	if err != nil {
		return err
	}
	// Take the cold outputs now, so the cold world is garbage during the
	// loop.
	want := make([]string, len(warmCheck))
	for i, id := range warmCheck {
		if want[i], err = runExperiment(ctx, m.world, id); err != nil {
			return fmt.Errorf("%s on the cold world: %w", id, err)
		}
	}
	m.world = nil
	err = m.loop(func() error {
		t := time.Now()
		w, err := m.build(ctx, cfg, true)
		if !m.op(time.Since(t), err, "warm load") {
			return nil
		}
		for _, st := range w.StageStatuses() {
			if st.Persisted && st.Outcome != "loaded" {
				m.fail("warm-start: stage %s was %s, not loaded from the store", st.ID, st.Outcome)
				break
			}
		}
		m.world = w
		return nil
	})
	if err != nil {
		return err
	}
	if m.world == nil {
		return nil
	}
	for i, id := range warmCheck {
		got, err := runExperiment(ctx, m.world, id)
		m.check(err == nil && got == want[i], "warm-start: %s on the warm world differs from the cold world (%v)", id, err)
	}
	return nil
}

// whatIf evaluates the builtin scenarios against one base world, over and
// over. Set-up builds the world and fills its route caches with one sweep;
// an operation is one Eval followed by its Report.
func whatIf(ctx context.Context, m *measurement) error {
	specs := scenario.Builtins()
	err := m.setup(func() (*anycastctx.World, error) {
		w, err := m.build(ctx, m.cfg, true)
		if err != nil {
			return nil, err
		}
		base := scenario.NewBaseline(w)
		for _, s := range specs {
			res, err := scenario.Eval(ctx, base, s, scenario.Options{})
			if err != nil {
				return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
			}
			res.Report(ctx)
		}
		return w, nil
	})
	if err != nil {
		return err
	}
	// Every timed report must equal the first one, which after the loop
	// must equal a full rebuild's: the engine's contract. Taking the first
	// reports also fills the baseline's own inflation caches.
	base := scenario.NewBaseline(m.world)
	want := map[string]string{}
	for _, s := range specs {
		res, err := scenario.Eval(ctx, base, s, scenario.Options{})
		if err != nil {
			return fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		want[s.Name] = res.Report(ctx)
	}
	err = m.loop(func() error {
		for _, s := range specs {
			rep, evalD, reportD, err := m.evalReport(ctx, base, s)
			if m.op(evalD+reportD, err, "scenario "+s.Name) && rep != want[s.Name] {
				m.fail("whatif: %s: report differs from the first one", s.Name)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, s := range specs {
		full, err := scenario.Eval(ctx, base, s, scenario.Options{FullRebuild: true})
		m.check(err == nil && full.Report(ctx) == want[s.Name], "whatif: %s: incremental report differs from full rebuild (%v)", s.Name, err)
	}
	return nil
}

// evalReport evaluates one scenario and renders its report, timing each
// call and recording both times when they succeed.
func (m *measurement) evalReport(ctx context.Context, base *scenario.Baseline, s scenario.Spec) (string, time.Duration, time.Duration, error) {
	t := time.Now()
	res, err := scenario.Eval(ctx, base, s, scenario.Options{})
	evalD := time.Since(t)
	if err != nil {
		return "", evalD, 0, err
	}
	t = time.Now()
	rctx, span := obs.StartSpanCtx(ctx, "scenario.report")
	rep := res.Report(rctx)
	span.End()
	reportD := time.Since(t)
	m.evalMs[s.Name] = append(m.evalMs[s.Name], ms(evalD))
	m.reportMs[s.Name] = append(m.reportMs[s.Name], ms(reportD))
	return rep, evalD, reportD, nil
}

// capturePair is one (letter, site) whose capture has contributors.
type capturePair struct{ letter, site int }

// capturePairs lists the sites, in letter-then-site order, that emit a
// non-empty capture: all of them, or the first limit when limit > 0.
func capturePairs(c *ditl.Campaign, seed int64, limit int) ([]capturePair, error) {
	var out []capturePair
	for li, d := range c.Letters {
		for s := range d.Sites {
			n, err := c.EmitSiteCapture(io.Discard, li, s, 1, seed)
			if err != nil {
				return nil, err
			}
			if n > 0 {
				out = append(out, capturePair{li, s})
			}
			if limit > 0 && len(out) == limit {
				return out, nil
			}
		}
	}
	return out, nil
}

// emitAndSummarize writes one capped site capture into buf and reads it
// back, returning the records written, the summary, and how long each
// step took.
func emitAndSummarize(ctx context.Context, c *ditl.Campaign, buf *bytes.Buffer, p capturePair, seed int64) (
	n int, s *ditl.CaptureSummary, emit, summarize time.Duration, err error) {
	buf.Reset()
	t := time.Now()
	if n, err = c.EmitSiteCaptureCtx(ctx, buf, p.letter, p.site, captureRecords, seed); err != nil {
		return n, nil, time.Since(t), 0, err
	}
	emit = time.Since(t)
	t = time.Now()
	_, span := obs.StartSpanCtx(ctx, "ditl.summarize")
	s, err = ditl.SummarizeCapture(bytes.NewReader(buf.Bytes()))
	span.End()
	return n, s, emit, time.Since(t), err
}

// captureWorkload is the packet path: an operation emits one letter-site
// capture into a reused buffer and summarizes the bytes back, cycling
// through every site with contributors. Route resolution and great-circle
// math do no work here.
func captureWorkload(ctx context.Context, m *measurement) error {
	err := m.setup(func() (*anycastctx.World, error) {
		return m.build(ctx, m.cfg, true)
	})
	if err != nil {
		return err
	}
	c := m.world.Campaign()
	pairs, err := capturePairs(c, m.cfg.Seed, 0)
	if err != nil {
		return err
	}
	if len(pairs) == 0 {
		return fmt.Errorf("no site has capture contributors")
	}
	// Visit the sites in a seeded random order, so the sites a window
	// reaches are a fair sample however fast the operations run.
	rng := rand.New(rand.NewSource(m.cfg.Seed))
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	var buf bytes.Buffer
	next := 0
	err = m.loop(func() error {
		p := pairs[next%len(pairs)]
		next++
		n, s, emitD, sumD, err := emitAndSummarize(ctx, c, &buf, p, m.cfg.Seed)
		if !m.op(emitD+sumD, err, fmt.Sprintf("capture %s site %d", c.LetterNames[p.letter], p.site)) {
			return nil
		}
		if s.Packets != n || s.Skipped() != 0 || s.DroppedRecords != 0 || s.SkippedBytes != 0 {
			m.fail("capture %s site %d: wrote %d records, summarized %d (%d skipped, %d dropped, %d bytes skipped)",
				c.LetterNames[p.letter], p.site, n, s.Packets, s.Skipped(), s.DroppedRecords, s.SkippedBytes)
		}
		return nil
	})
	if err != nil {
		return err
	}
	resyncs := m.after.Counters["pcapio.reader_resyncs"] - m.before.Counters["pcapio.reader_resyncs"]
	m.check(resyncs == 0, "capture: the pcap reader resynchronized %d times", resyncs)
	return nil
}

// endToEnd is the untraced run's result: the end-to-end metrics.
func (m *measurement) endToEnd() result {
	var total float64
	for _, v := range m.opMs {
		total += v
	}
	rate := 0.0
	if total > 0 {
		rate = float64(len(m.opMs)) / (total / 1e3)
	}
	return result{
		Correct:   m.failed == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics: map[string]metric{
			"setup_s":     {quantile(m.setupS, 0.5), "s"},
			"op_ms_p50":   {quantile(m.opMs, 0.5), "ms"},
			"op_ms_p90":   {quantile(m.opMs, 0.9), "ms"},
			"ops_per_s":   {rate, "1/s"},
			"peak_rss_mb": {float64(m.peakRSS) / (1 << 20), "MiB"},
		},
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// quantile interpolates linearly between the order statistics of xs; it
// is 0 for no samples, so every reported value stays finite.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
