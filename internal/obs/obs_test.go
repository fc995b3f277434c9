package obs

import (
	"context"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test.hits")
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
}

func TestGaugeConcurrentSet(t *testing.T) {
	r := NewRegistry()
	g := r.NewGauge("test.level")
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				g.Set(float64(w) + 0.5)
				if v := g.Value(); v != math.Trunc(v)+0.5 || v < 0 || v >= workers {
					t.Errorf("gauge read %v, which no worker set", v)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	g.Set(-3)
	if g.Value() != -3 {
		t.Errorf("gauge after Set = %v, want -3", g.Value())
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("test.lat")
	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(float64(w*perWorker+i) + 1)
			}
		}(w)
	}
	wg.Wait()
	n := uint64(workers * perWorker)
	if h.Count() != n {
		t.Fatalf("count = %d, want %d", h.Count(), n)
	}
	if h.Min() != 1 || h.Max() != float64(n) {
		t.Errorf("range [%v, %v], want [1, %d]", h.Min(), h.Max(), n)
	}
	wantSum := float64(n) * float64(n+1) / 2
	if h.Sum() != wantSum {
		t.Errorf("sum = %v, want %v", h.Sum(), wantSum)
	}
}

// TestHistogramQuantileInvariants property-tests the quantile estimator:
// for any observation set, quantiles are monotone in q, bounded by the
// exact min/max, and p100 ≥ every observation's bucket bound.
func TestHistogramQuantileInvariants(t *testing.T) {
	check := func(raw []float64) bool {
		vs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsInf(v, 0) && !math.IsNaN(v) {
				vs = append(vs, math.Abs(v))
			}
		}
		if len(vs) == 0 {
			return true
		}
		r := NewRegistry()
		h := r.NewHistogram("q.test")
		for _, v := range vs {
			h.Observe(v)
		}
		if h.Count() != uint64(len(vs)) {
			return false
		}
		sort.Float64s(vs)
		min, max := vs[0], vs[len(vs)-1]
		if h.Min() != min || h.Max() != max {
			return false
		}
		qs := []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1}
		prev := math.Inf(-1)
		for _, q := range qs {
			est := h.Quantile(q)
			if math.IsNaN(est) || est < min || est > max || est < prev {
				return false
			}
			// ≤2× relative error against the exact quantile (power-of-two
			// buckets), beyond the clamp to [min, max].
			idx := int(math.Ceil(q*float64(len(vs)))) - 1
			if idx < 0 {
				idx = 0
			}
			exact := vs[idx]
			if exact > 0 && est > 0 && (est > exact*2 || est < exact/2) &&
				est != min && est != max {
				return false
			}
			prev = est
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHistogramEmpty(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("empty")
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Errorf("empty quantile = %v, want NaN", h.Quantile(0.5))
	}
	snap := r.Snapshot()
	st := snap.Histograms["empty"]
	if st.Count != 0 || st.Min != 0 || st.P50 != 0 {
		t.Errorf("empty snapshot = %+v, want zeros", st)
	}
}

func TestSpanNesting(t *testing.T) {
	r := NewRegistry()
	r.Enable()
	ctx, outer := r.StartSpanCtx(context.Background(), "outer")
	_, inner1 := r.StartSpanCtx(ctx, "inner1")
	inner1.End()
	ctx2, inner2 := r.StartSpanCtx(ctx, "inner2")
	_, deep := r.StartSpanCtx(ctx2, "deep")
	deep.End()
	inner2.End()
	outer.End()

	spans := r.Spans()
	want := []struct {
		name  string
		depth int
	}{
		{"outer", 0}, {"inner1", 1}, {"inner2", 1}, {"deep", 2},
	}
	if len(spans) != len(want) {
		t.Fatalf("got %d spans, want %d", len(spans), len(want))
	}
	for i, w := range want {
		if spans[i].Name != w.name || spans[i].Depth != w.depth {
			t.Errorf("span %d = %q depth %d, want %q depth %d",
				i, spans[i].Name, spans[i].Depth, w.name, w.depth)
		}
		if !spans[i].done {
			t.Errorf("span %q not marked done", spans[i].Name)
		}
	}
	// The outer span must contain the inner spans' wall time.
	rec, ok := outer.Record()
	if !ok {
		t.Fatal("outer Record not ok")
	}
	for _, sp := range spans[1:] {
		if sp.WallNs > rec.WallNs {
			t.Errorf("inner span %q wall %d exceeds outer %d", sp.Name, sp.WallNs, rec.WallNs)
		}
	}
}

func TestSpanDisabledIsInert(t *testing.T) {
	r := NewRegistry()
	ctx := context.Background()
	if got, sp := r.StartSpanCtx(ctx, "nothing"); got != ctx {
		t.Error("disabled StartSpanCtx replaced the context")
	} else {
		sp.End()
		if _, ok := sp.Record(); ok {
			t.Error("disabled span produced a record")
		}
	}
	if len(r.Spans()) != 0 {
		t.Errorf("disabled registry collected %d spans", len(r.Spans()))
	}
	allocs := testing.AllocsPerRun(100, func() {
		_, s := r.StartSpanCtx(ctx, "hot")
		s.End()
	})
	if allocs != 0 {
		t.Errorf("disabled StartSpanCtx/End allocates %v bytes/op, want 0", allocs)
	}
}

func TestSnapshotAndDeltas(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("a.count")
	g := r.NewGauge("a.gauge")
	h := r.NewHistogram("a.hist")
	c.Add(5)
	g.Set(2.5)
	h.Observe(10)
	before := r.Snapshot()
	c.Add(7)
	h.Observe(20)
	after := r.Snapshot()

	if before.Counters["a.count"] != 5 || after.Counters["a.count"] != 12 {
		t.Errorf("counter snapshots = %d, %d; want 5, 12",
			before.Counters["a.count"], after.Counters["a.count"])
	}
	d := after.CounterDeltas(before)
	if len(d) != 1 || d["a.count"] != 7 {
		t.Errorf("deltas = %v, want map[a.count:7]", d)
	}
	if after.Gauges["a.gauge"] != 2.5 {
		t.Errorf("gauge snapshot = %v, want 2.5", after.Gauges["a.gauge"])
	}
	hs := after.Histograms["a.hist"]
	if hs.Count != 2 || hs.Sum != 30 || hs.Min != 10 || hs.Max != 20 {
		t.Errorf("hist snapshot = %+v", hs)
	}
}

func TestReset(t *testing.T) {
	r := NewRegistry()
	r.Enable()
	c := r.NewCounter("r.count")
	h := r.NewHistogram("r.hist")
	c.Inc()
	h.Observe(3)
	_, sp := r.StartSpanCtx(context.Background(), "stage")
	sp.End()
	r.Reset()
	if c.Value() != 0 || h.Count() != 0 || len(r.Spans()) != 0 {
		t.Errorf("reset left state: counter=%d hist=%d spans=%d",
			c.Value(), h.Count(), len(r.Spans()))
	}
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Error("reset histogram still has quantiles")
	}
	// Handles keep working after Reset.
	c.Inc()
	if c.Value() != 1 {
		t.Errorf("counter after reset = %d, want 1", c.Value())
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup")
	defer func() {
		if recover() == nil {
			t.Error("duplicate metric name did not panic")
		}
	}()
	r.NewGauge("dup")
}

func TestWriteTrace(t *testing.T) {
	r := NewRegistry()
	r.Enable()
	ctx, outer := r.StartSpanCtx(context.Background(), "world.build")
	_, inner := r.StartSpanCtx(ctx, "world.topology")
	inner.End()
	outer.End()
	var sb strings.Builder
	if err := r.WriteTrace(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "world.build") || !strings.Contains(out, "  world.topology") {
		t.Errorf("trace missing flame-ordered spans:\n%s", out)
	}
}

func TestCounterDeltasSkipResetCounters(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("d.count")
	c.Add(100)
	before := r.Snapshot()
	r.Reset()
	c.Add(3) // restarted counter: 3 < 100
	after := r.Snapshot()
	d := after.CounterDeltas(before)
	if _, ok := d["d.count"]; ok {
		t.Errorf("delta for reset counter reported: %v (uint64 wrap)", d)
	}
	// A counter that advanced past its pre-reset value still reports.
	c.Add(200)
	d = r.Snapshot().CounterDeltas(before)
	if d["d.count"] != 103 {
		t.Errorf("post-reset advance delta = %v, want 103", d["d.count"])
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("q.hist")
	for _, v := range []float64{1, 2, 4, 8} {
		h.Observe(v)
	}
	cases := []struct {
		name string
		q    float64
		want float64 // NaN means "want NaN"
	}{
		{"nan", math.NaN(), math.NaN()},
		{"zero", 0, 2},        // first observation's bucket bound (≤2× rule)
		{"one", 1, 8},         // clamped to observed max
		{"negative", -3, 2},   // clamps to q=0
		{"above one", 2.5, 8}, // clamps to q=1
	}
	for _, tc := range cases {
		got := h.Quantile(tc.q)
		if math.IsNaN(tc.want) {
			if !math.IsNaN(got) {
				t.Errorf("Quantile(%s) = %v, want NaN", tc.name, got)
			}
			continue
		}
		if got != tc.want {
			t.Errorf("Quantile(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
	// NaN on an empty histogram too, regardless of q.
	he := r.NewHistogram("q.empty")
	if !math.IsNaN(he.Quantile(math.NaN())) || !math.IsNaN(he.Quantile(0.5)) {
		t.Error("empty histogram quantiles not NaN")
	}
}

func TestHeapAccounting(t *testing.T) {
	r := NewRegistry()
	if r.PeakHeapBytes() != 0 {
		t.Errorf("fresh registry peak heap = %d, want 0", r.PeakHeapBytes())
	}
	r.Enable()
	_, sp := r.StartSpanCtx(context.Background(), "alloc.stage")
	sink := make([]byte, 1<<22)
	sp.End()
	if r.PeakHeapBytes() == 0 {
		t.Error("span boundaries did not record a heap peak")
	}
	rec, ok := sp.Record()
	if !ok {
		t.Fatal("no span record")
	}
	if rec.HeapDeltaBytes < 1<<21 {
		t.Errorf("heap delta = %d, want >= %d (4 MiB retained)", rec.HeapDeltaBytes, 1<<21)
	}
	_ = sink[0]
	r.Reset()
	if r.PeakHeapBytes() != 0 {
		t.Errorf("peak heap after Reset = %d, want 0", r.PeakHeapBytes())
	}
}

func TestSampleHeapAndPeakRSS(t *testing.T) {
	SampleHeap()
	snap := TakeSnapshot()
	if snap.Gauges["obs.heap_live_bytes"] <= 0 || snap.Gauges["obs.heap_sys_bytes"] <= 0 {
		t.Errorf("heap gauges not set: %v", snap.Gauges)
	}
	if PeakHeapBytes() == 0 {
		t.Error("default registry has no heap peak after SampleHeap")
	}
	// PeakRSSBytes is best-effort: non-zero on Linux, 0 elsewhere.
	if rss := PeakRSSBytes(); rss != 0 && rss < 1<<20 {
		t.Errorf("peak RSS %d implausibly small", rss)
	}
}
