package dnssim

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// TestRunCtxPipeline holds RunCtx's generator goroutine to two promises:
// a run is the same query for query whether the generator shares one CPU
// with the resolver or has its own, and a panic in onResult reaches the
// caller with no generator goroutine left behind.
func TestRunCtxPipeline(t *testing.T) {
	z := NewZone(1000, 23)
	cfg := ResolverConfig{NumLetters: len(oracleRootRTTs), Bug: true}
	const seed = 300

	t.Run("gomaxprocs", func(t *testing.T) {
		r, _ := newOraclePair(t, z, cfg, seed)
		want := runTyped(z, r, seed, false)
		prev := runtime.GOMAXPROCS(1)
		r, _ = newOraclePair(t, z, cfg, seed)
		got := runTyped(z, r, seed, false)
		runtime.GOMAXPROCS(prev)
		compareOutcomes(t, "GOMAXPROCS=1 vs default", got, want)
		if len(want.queries) < 4*batchSize {
			t.Errorf("only %d queries; the run spans too few batches", len(want.queries))
		}
	})

	t.Run("panic", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		r, _ := newOraclePair(t, z, cfg, seed)
		c := NewClient(z, ClientConfig{Users: 40}, seed)
		type stopRun struct{}
		n := 0
		func() {
			defer func() {
				if v := recover(); v != (stopRun{}) {
					t.Errorf("recovered %v, want onResult's panic", v)
				}
			}()
			c.RunCtx(context.Background(), r, 1, func(QueryKind, QueryResult) {
				if n++; n == batchSize+batchSize/2 {
					panic(stopRun{})
				}
			})
			t.Error("RunCtx returned after onResult panicked")
		}()
		// RunCtx unwinds only after the generator's last statement;
		// give its goroutine a moment to finish exiting.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := runtime.NumGoroutine(); got > baseline {
			t.Errorf("%d goroutines after the panic, %d before: the generator outlived RunCtx", got, baseline)
		}
	})
}
