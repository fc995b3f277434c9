package obs

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"
)

// SpanRecord is one completed (or still-open) traced stage.
type SpanRecord struct {
	// ID is the span's registry-unique identifier (1-based; 0 is never a
	// valid ID, so it doubles as "no span" in Parent).
	ID int64
	// Parent is the ID of the enclosing span, or 0 for a root span. The
	// parent is the span carried by the context passed to StartSpanCtx.
	Parent int64
	// Name identifies the stage, dot-scoped by subsystem
	// ("world.topology", "bgp.warm", "experiment.fig2a").
	Name string
	// Depth is the nesting level at start time (0 = top level).
	Depth int
	// StartNs is the start offset from the registry's first span.
	StartNs int64
	// WallNs is the span's wall-clock duration (0 until End).
	WallNs int64
	// AllocBytes is the runtime.MemStats.TotalAlloc delta across the
	// span: bytes allocated by this stage (and any concurrent work).
	AllocBytes uint64
	// HeapDeltaBytes is the live-heap (HeapAlloc) change across the span.
	// Unlike AllocBytes it nets out garbage collected inside the span, so
	// it can be negative (a stage that frees more than it retains).
	HeapDeltaBytes int64

	startAlloc uint64
	startHeap  uint64
	done       bool
}

// Done reports whether the span has ended.
func (sr SpanRecord) Done() bool { return sr.done }

// Span is a handle to an in-flight traced stage. The zero value (returned
// when tracing is disabled) is inert: End is a no-op and nothing was
// recorded or allocated.
type Span struct {
	r   *Registry
	idx int
}

// ID returns the span's registry-unique identifier (0 for the inert zero
// Span).
func (s Span) ID() int64 { return int64(s.idx) }

// ctxKey keys the current span in a context. One key per process: spans
// from different registries still disambiguate through Span.r.
type ctxKey struct{}

// ContextWithSpan returns a context carrying s as the current span.
// Carrying the zero Span is allowed and marks "no parent".
func ContextWithSpan(ctx context.Context, s Span) context.Context {
	return context.WithValue(ctx, ctxKey{}, s)
}

// SpanFromContext returns the span carried by ctx, or the zero Span.
func SpanFromContext(ctx context.Context) Span {
	s, _ := ctx.Value(ctxKey{}).(Span)
	return s
}

// StartSpanCtx begins a traced stage on the default registry as a child
// of the span carried by ctx (if any), and returns a context carrying the
// new span. Parentage travels only in contexts, so concurrent goroutines
// each threading their own context build the correct span tree. When
// tracing is disabled it returns ctx unchanged and the inert zero Span,
// without reading the clock or memory statistics and without allocating.
func StartSpanCtx(ctx context.Context, name string) (context.Context, Span) {
	return Default.StartSpanCtx(ctx, name)
}

// StartSpanCtx begins a traced stage parented to the span carried by ctx
// (when that span belongs to this registry). See the package-level
// StartSpanCtx.
func (r *Registry) StartSpanCtx(ctx context.Context, name string) (context.Context, Span) {
	if !r.enabled.Load() {
		return ctx, Span{}
	}
	parent := int64(0)
	if p := SpanFromContext(ctx); p.r == r {
		parent = p.ID()
	}
	s := r.startSpan(name, parent)
	return ContextWithSpan(ctx, s), s
}

// startSpan appends one span record under parent (0 = root).
func (r *Registry) startSpan(name string, parent int64) Span {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.noteHeap(ms.HeapAlloc)
	r.spanMu.Lock()
	// Read the clock under the lock so records append in timestamp order:
	// Chrome trace export and the text trace both rely on start-ordered
	// spans.
	now := time.Now().UnixNano()
	if r.clock == 0 {
		r.clock = now
	}
	idx := len(r.spans)
	depth := 0
	if parent > 0 {
		depth = r.spans[parent-1].Depth + 1
	}
	r.spans = append(r.spans, SpanRecord{
		ID:         int64(idx) + 1,
		Parent:     parent,
		Name:       name,
		Depth:      depth,
		StartNs:    now - r.clock,
		startAlloc: ms.TotalAlloc,
		startHeap:  ms.HeapAlloc,
	})
	r.spanMu.Unlock()
	return Span{r: r, idx: idx + 1}
}

// End completes the span, recording wall time and the allocation delta.
// Safe to call on the zero Span and idempotent.
func (s Span) End() {
	if s.r == nil || s.idx == 0 {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	now := time.Now().UnixNano()
	r := s.r
	r.noteHeap(ms.HeapAlloc)
	r.spanMu.Lock()
	rec := &r.spans[s.idx-1]
	if !rec.done {
		rec.done = true
		rec.WallNs = now - r.clock - rec.StartNs
		if ms.TotalAlloc >= rec.startAlloc {
			rec.AllocBytes = ms.TotalAlloc - rec.startAlloc
		}
		rec.HeapDeltaBytes = int64(ms.HeapAlloc) - int64(rec.startHeap)
	}
	r.spanMu.Unlock()
}

// Record returns a copy of the span's record (valid after End). ok is
// false for the inert zero Span.
func (s Span) Record() (SpanRecord, bool) {
	if s.r == nil || s.idx == 0 {
		return SpanRecord{}, false
	}
	s.r.spanMu.Lock()
	defer s.r.spanMu.Unlock()
	return s.r.spans[s.idx-1], true
}

// Spans returns a copy of all collected spans in start order.
func (r *Registry) Spans() []SpanRecord {
	r.spanMu.Lock()
	defer r.spanMu.Unlock()
	out := make([]SpanRecord, len(r.spans))
	copy(out, r.spans)
	return out
}

// Spans returns the default registry's collected spans in start order.
func Spans() []SpanRecord { return Default.Spans() }

// WriteTrace renders collected spans flame-ordered (start order, indented
// by nesting depth) with wall time and allocation deltas.
func (r *Registry) WriteTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%-12s %-52s %12s %12s %12s\n", "START", "SPAN", "WALL", "ALLOC", "HEAPΔ")
	for _, sp := range r.Spans() {
		name := strings.Repeat("  ", sp.Depth) + sp.Name
		wall := "open"
		if sp.done {
			wall = fmtDuration(sp.WallNs)
		}
		fmt.Fprintf(bw, "%-12s %-52s %12s %12s %12s\n",
			fmtDuration(sp.StartNs), name, wall, fmtBytes(sp.AllocBytes), fmtHeapDelta(sp.HeapDeltaBytes))
	}
	return bw.Flush()
}

// WriteTrace renders the default registry's spans.
func WriteTrace(w io.Writer) error { return Default.WriteTrace(w) }

func fmtDuration(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.3fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

func fmtHeapDelta(d int64) string {
	if d < 0 {
		return "-" + fmtBytes(uint64(-d))
	}
	return fmtBytes(uint64(d))
}

func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
