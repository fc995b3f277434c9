// Package par provides the chunked fan-out primitive the hot analysis
// loops share: split a dense index range across roughly one worker per
// CPU, run a closure on each contiguous span, and wait. Callers write
// results into pre-sized slices indexed by the original position, so
// downstream aggregation happens in deterministic input order and output
// bytes never depend on goroutine scheduling.
package par

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// WorkerPanic is re-panicked on the caller's goroutine when a worker
// panics: it names the index range the failing worker owned and carries
// the worker's stack, so the failure is debuggable instead of an
// unrelated-stack process abort from a detached goroutine.
type WorkerPanic struct {
	Lo, Hi int // the failing worker's [lo, hi) span
	Value  any // the original panic value
	Stack  []byte
}

func (p *WorkerPanic) Error() string {
	return fmt.Sprintf("par: worker for [%d,%d) panicked: %v\n%s", p.Lo, p.Hi, p.Value, p.Stack)
}

// Unwrap exposes the original panic value when it was an error.
func (p *WorkerPanic) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}

// Do runs fn over [0, n) split into contiguous [lo, hi) spans, one per
// worker, and returns when every span is done. With one usable CPU, or
// when n is too small to give two workers MinChunk items each, it calls
// fn(0, n) on the caller's goroutine, so the serial path has zero
// synchronization overhead.
//
// A panic in fn does not kill the process from a detached goroutine:
// workers recover, every span still runs to completion (or its own
// panic), and the first panic in span order is re-raised on the caller's
// goroutine as a *WorkerPanic annotating the failing [lo, hi) range.
func Do(n int, fn func(lo, hi int)) {
	DoCtx(context.Background(), n, func(_ context.Context, lo, hi int) { fn(lo, hi) })
}

// MinChunk is the smallest index span worth its own goroutine. The
// splittable-RNG migration parallelized many loops whose n is modest
// (a capture's ~100 contributors, a deployment's ~200 probes); without
// a floor those would spawn GOMAXPROCS goroutines to do a handful of
// iterations each, and the spawn/join overhead would eat the win. With
// the floor, small loops use fewer workers — or the zero-overhead
// serial path — and chunk boundaries stay deterministic either way.
const MinChunk = 16

// plan picks the worker count for a range of n items: at most one
// worker per usable CPU, capped so every worker's chunk holds at least
// MinChunk items. Chunks are balanced (sizes differ by at most one), so
// with workers > 1 the smallest chunk is n/workers >= MinChunk.
func plan(n int) (workers int) {
	workers = runtime.GOMAXPROCS(0)
	if limit := n / MinChunk; workers > limit {
		workers = limit
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// DoCtx is Do with a context threaded to every worker. The context is the
// observability carrier: callers start a parent span, put it in ctx, and
// each worker's shard spans (started via obs.StartSpanCtx inside fn)
// attach to it, so parallel stages keep a correct span tree. DoCtx itself
// never cancels on ctx — shards are short and deterministic, and partial
// fan-outs would break output byte-identity.
func DoCtx(ctx context.Context, n int, fn func(ctx context.Context, lo, hi int)) {
	if n <= 0 {
		return
	}
	workers := plan(n)
	if workers <= 1 {
		fn(ctx, 0, n) // serial path: a panic already unwinds the caller's stack
		return
	}
	base, rem := n/workers, n%workers
	panics := make([]*WorkerPanic, workers)
	var wg sync.WaitGroup
	for lo, span := 0, 0; span < workers; span++ {
		hi := lo + base
		if span < rem {
			hi++
		}
		wg.Add(1)
		go func(lo, hi, span int) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					buf := make([]byte, 64<<10)
					panics[span] = &WorkerPanic{Lo: lo, Hi: hi, Value: v, Stack: buf[:runtime.Stack(buf, false)]}
				}
			}()
			fn(ctx, lo, hi)
		}(lo, hi, span)
		lo = hi
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}
