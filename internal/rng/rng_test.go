package rng

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

func TestSplitDeterministic(t *testing.T) {
	a := Split(42, PhaseRates, 7)
	b := Split(42, PhaseRates, 7)
	for i := 0; i < 100; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("draw %d: same key diverged: %#x vs %#x", i, x, y)
		}
	}
}

func TestSplitKeysIndependent(t *testing.T) {
	// Any single-component change to the key must change the stream.
	base := Split(1, PhaseRates, 5)
	first := base.Uint64()
	for name, s := range map[string]Stream{
		"seed":  Split(2, PhaseRates, 5),
		"phase": Split(1, PhaseZone, 5),
		"id":    Split(1, PhaseRates, 6),
	} {
		s := s
		if s.Uint64() == first {
			t.Errorf("changing %s did not change the first draw", name)
		}
	}
}

func TestForkIsPureAndDistinct(t *testing.T) {
	s := Split(9, PhaseCaptureRec, 3)
	f1 := s.Fork(0)
	f2 := s.Fork(0)
	if f1 != f2 {
		t.Fatal("Fork is not pure: same id gave different streams")
	}
	g := s.Fork(1)
	if f1.Uint64() == g.Uint64() {
		t.Error("Fork(0) and Fork(1) share their first draw")
	}
	// Forking must not advance the parent.
	before := s
	_ = s.Fork(17)
	if s != before {
		t.Error("Fork advanced the parent stream")
	}
}

func TestStreamIsSource64(t *testing.T) {
	s := Split(3, PhaseClientRun, 0)
	r := rand.New(&s)
	for i := 0; i < 1000; i++ {
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("rand.New(stream).Float64() = %v out of [0,1)", f)
		}
		if v := r.Int63(); v < 0 {
			t.Fatalf("Int63 negative: %d", v)
		}
	}
}

func TestHelperRanges(t *testing.T) {
	s := Split(4, PhaseZone, 0)
	for i := 0; i < 10000; i++ {
		if f := s.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		if n := s.Intn(7); n < 0 || n >= 7 {
			t.Fatalf("Intn(7) out of range: %d", n)
		}
		if n := s.Int63n(8); n < 0 || n >= 8 { // power-of-two path
			t.Fatalf("Int63n(8) out of range: %d", n)
		}
		if e := s.ExpFloat64(); e < 0 {
			t.Fatalf("ExpFloat64 negative: %v", e)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	s.Intn(0)
}

func TestNormAndExpMoments(t *testing.T) {
	s := Split(5, PhaseDITLPref, 0)
	const n = 200000
	var sum, sumSq, sumExp float64
	for i := 0; i < n; i++ {
		x := s.NormFloat64()
		sum += x
		sumSq += x * x
		sumExp += s.ExpFloat64()
	}
	if mean := sum / n; math.Abs(mean) > 0.02 {
		t.Errorf("NormFloat64 mean %v, want ~0", mean)
	}
	if v := sumSq / n; math.Abs(v-1) > 0.03 {
		t.Errorf("NormFloat64 variance %v, want ~1", v)
	}
	if m := sumExp / n; math.Abs(m-1) > 0.03 {
		t.Errorf("ExpFloat64 mean %v, want ~1", m)
	}
}

// TestChiSquaredUniformity bins one stream's draws and applies a
// chi-squared bound. Deterministic seed, so no flakes: the bound is
// p < 1e-5-ish headroom over the 63-dof expectation.
func TestChiSquaredUniformity(t *testing.T) {
	s := Split(1, PhaseRates, 0)
	const (
		bins  = 64
		draws = 100000
	)
	var counts [bins]int
	for i := 0; i < draws; i++ {
		counts[int(s.Float64()*bins)]++
	}
	expected := float64(draws) / bins
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 63 degrees of freedom: mean 63, stddev ~11.2. 130 is ~6 sigma.
	if chi2 > 130 {
		t.Errorf("chi-squared %v over %d bins, want < 130", chi2, bins)
	}
}

// TestAdjacentIDsUncorrelated is the satellite's correlation smoke test:
// the first draws of streams with consecutive entity IDs must look like
// independent uniforms — otherwise per-entity parallel loops would bake
// neighbour correlations into every sampled population.
func TestAdjacentIDsUncorrelated(t *testing.T) {
	const n = 4096
	first := make([]float64, n)
	for id := 0; id < n; id++ {
		s := Split(1, PhaseDITLSites, uint64(id))
		first[id] = s.Float64()
	}
	// Pearson correlation between u_i and u_{i+1}.
	var sx, sy, sxx, syy, sxy float64
	m := n - 1
	for i := 0; i < m; i++ {
		x, y := first[i], first[i+1]
		sx += x
		sy += y
		sxx += x * x
		syy += y * y
		sxy += x * y
	}
	fm := float64(m)
	cov := sxy/fm - (sx/fm)*(sy/fm)
	vx := sxx/fm - (sx/fm)*(sx/fm)
	vy := syy/fm - (sy/fm)*(sy/fm)
	r := cov / math.Sqrt(vx*vy)
	// Independent uniforms: r ~ N(0, 1/sqrt(m)), sd ~ 0.016. 0.08 is 5 sigma.
	if math.Abs(r) > 0.08 {
		t.Errorf("lag-1 correlation %v across adjacent IDs, want |r| < 0.08", r)
	}
	// And a 2D occupancy check: (u_i, u_{i+1}) pairs spread over a 4x4
	// grid, chi-squared with 15 dof (mean 15, stddev ~5.5).
	var grid [16]int
	for i := 0; i < m; i++ {
		grid[int(first[i]*4)*4+int(first[i+1]*4)]++
	}
	expected := float64(m) / 16
	var chi2 float64
	for _, c := range grid {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 50 {
		t.Errorf("pair-occupancy chi-squared %v, want < 50", chi2)
	}
}

// TestConcurrentDerivationRace is the satellite's -race hammer: many
// goroutines derive overlapping keys and draw concurrently, and each
// must reproduce the serially-computed reference exactly. Splitting is
// pure, so there is nothing to lock — this test proves it under the
// race detector.
func TestConcurrentDerivationRace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	const (
		goroutines = 32
		entities   = 256
		draws      = 64
	)
	// Serial reference: first and last draw per entity.
	ref := make([][2]uint64, entities)
	for id := range ref {
		s := Split(11, PhaseCaptureRec, uint64(id)).Fork(uint64(id % 7))
		ref[id][0] = s.Uint64()
		var last uint64
		for i := 1; i < draws; i++ {
			last = s.Uint64()
		}
		ref[id][1] = last
	}
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine walks the entities in a different order.
			for k := 0; k < entities; k++ {
				id := (k*17 + g*31) % entities
				s := Split(11, PhaseCaptureRec, uint64(id)).Fork(uint64(id % 7))
				if got := s.Uint64(); got != ref[id][0] {
					errs <- "first draw mismatch"
					return
				}
				var last uint64
				for i := 1; i < draws; i++ {
					last = s.Uint64()
				}
				if last != ref[id][1] {
					errs <- "last draw mismatch"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestHashStringStableAndDistinct(t *testing.T) {
	if HashString("R28") != HashString("R28") {
		t.Fatal("HashString not deterministic")
	}
	seen := map[uint64]string{}
	for _, name := range []string{"", "A", "B", "R6", "R18", "R28", "R46", "RAll", "a-root", "b-root"} {
		h := HashString(name)
		if prev, dup := seen[h]; dup {
			t.Fatalf("HashString collision: %q vs %q", prev, name)
		}
		seen[h] = name
	}
}

func TestNewRandAndZipf(t *testing.T) {
	r1 := NewRand(6, PhaseClientPalette, 2)
	r2 := NewRand(6, PhaseClientPalette, 2)
	if r1.Float64() != r2.Float64() {
		t.Error("NewRand not deterministic")
	}
	z := rand.NewZipf(NewRand(6, PhaseClientRun, 0), 1.5, 1, 999)
	for i := 0; i < 100; i++ {
		if v := z.Uint64(); v > 999 {
			t.Fatalf("Zipf draw %d out of range", v)
		}
	}
}
