package stats

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewCDFErrors(t *testing.T) {
	if _, err := NewCDF(nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("NewCDF(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := NewCDF([]WeightedValue{{1, 0}}); !errors.Is(err, ErrEmpty) {
		t.Errorf("all-zero-weight err = %v, want ErrEmpty", err)
	}
	if _, err := NewCDF([]WeightedValue{{1, -1}}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := NewCDF([]WeightedValue{{math.NaN(), 1}}); err == nil {
		t.Error("NaN value accepted")
	}
	if _, err := NewCDF([]WeightedValue{{math.Inf(1), 1}}); err == nil {
		t.Error("Inf value accepted")
	}
}

// TestCDFQuantileEdgeCases pins the q <= 0, q > 1, NaN, and empty-CDF
// behavior (the campaign-store invariant work surfaced the old values[-1]
// panic on a zero-value CDF and the silent maximum returned for NaN q).
func TestCDFQuantileEdgeCases(t *testing.T) {
	c, err := NewCDF([]WeightedValue{{10, 1}, {20, 3}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		q    float64
		want float64 // NaN means "want NaN"
	}{
		{"negative clamps to minimum", -0.5, 10},
		{"zero clamps to minimum", 0, 10},
		{"negative infinity clamps to minimum", math.Inf(-1), 10},
		{"one clamps to maximum", 1, 20},
		{"above one clamps to maximum", 1.5, 20},
		{"positive infinity clamps to maximum", math.Inf(1), 20},
		{"interior", 0.25, 10},
		{"NaN returns NaN", math.NaN(), math.NaN()},
	}
	for _, tc := range cases {
		got := c.Quantile(tc.q)
		if math.IsNaN(tc.want) {
			if !math.IsNaN(got) {
				t.Errorf("%s: Quantile(%v) = %v, want NaN", tc.name, tc.q, got)
			}
			continue
		}
		if got != tc.want {
			t.Errorf("%s: Quantile(%v) = %v, want %v", tc.name, tc.q, got, tc.want)
		}
	}

	// The zero value has no observations; before the guard, interior q
	// panicked on values[-1] and q <= 0 silently answered 0.
	var empty CDF
	for _, q := range []float64{-1, 0, 0.5, 1, 2, math.NaN()} {
		if got := empty.Quantile(q); !math.IsNaN(got) {
			t.Errorf("empty CDF: Quantile(%v) = %v, want NaN", q, got)
		}
	}
	if got := empty.Median(); !math.IsNaN(got) {
		t.Errorf("empty CDF: Median() = %v, want NaN", got)
	}
}

func TestCDFBasics(t *testing.T) {
	c, err := NewCDF([]WeightedValue{{1, 1}, {2, 1}, {3, 1}, {4, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.P(0); got != 0 {
		t.Errorf("P(0) = %v, want 0", got)
	}
	if got := c.P(2); got != 0.5 {
		t.Errorf("P(2) = %v, want 0.5", got)
	}
	if got := c.P(2.5); got != 0.5 {
		t.Errorf("P(2.5) = %v, want 0.5", got)
	}
	if got := c.P(4); got != 1 {
		t.Errorf("P(4) = %v, want 1", got)
	}
	if got := c.Median(); got != 2 {
		t.Errorf("Median = %v, want 2", got)
	}
	if got := c.Quantile(0.75); got != 3 {
		t.Errorf("Q(0.75) = %v, want 3", got)
	}
	if got := c.Quantile(0); got != 1 {
		t.Errorf("Q(0) = %v, want 1", got)
	}
	if got := c.Quantile(1); got != 4 {
		t.Errorf("Q(1) = %v, want 4", got)
	}
	if got := c.Mean(); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
	if got := c.FractionAbove(3); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("FractionAbove(3) = %v, want 0.25", got)
	}
}

func TestCDFWeighted(t *testing.T) {
	// 90% of the weight at 0, 10% at 100 — like inflation with most users at zero.
	c, err := NewCDF([]WeightedValue{{0, 9}, {100, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.P(0); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("P(0) = %v, want 0.9", got)
	}
	if got := c.Median(); got != 0 {
		t.Errorf("Median = %v, want 0", got)
	}
	if got := c.Quantile(0.95); got != 100 {
		t.Errorf("Q(0.95) = %v, want 100", got)
	}
	if got := c.Mean(); math.Abs(got-10) > 1e-12 {
		t.Errorf("Mean = %v, want 10", got)
	}
}

func TestCDFDuplicatesMerged(t *testing.T) {
	c, err := NewCDF([]WeightedValue{{5, 1}, {5, 2}, {5, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.values) != 1 {
		t.Errorf("%d distinct values, want 1", len(c.values))
	}
	if c.total != 6 {
		t.Errorf("total weight = %v, want 6", c.total)
	}
	if c.P(5) != 1 {
		t.Errorf("P(5) = %v, want 1", c.P(5))
	}
}

func TestCDFQuantilePInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	vals := make([]float64, 200)
	for i := range vals {
		vals[i] = rng.NormFloat64() * 50
	}
	c, err := NewCDFFromValues(vals)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0.01; q < 1; q += 0.01 {
		v := c.Quantile(q)
		if p := c.P(v); p+1e-9 < q {
			t.Fatalf("P(Quantile(%f)) = %f < q", q, p)
		}
	}
}

func TestCDFMonotonicProperty(t *testing.T) {
	prop := func(raw []float64) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		c, err := NewCDFFromValues(vals)
		if err != nil {
			return false
		}
		for i := 1; i < len(c.values); i++ {
			if c.values[i] <= c.values[i-1] || c.P(c.values[i]) < c.P(c.values[i-1]) {
				return false
			}
		}
		return math.Abs(c.P(c.values[len(c.values)-1])-1) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBox(t *testing.T) {
	b, err := Box([]float64{1, 2, 3, 4, 5, 6, 7, 8})
	if err != nil {
		t.Fatal(err)
	}
	if b.Min != 1 || b.Max != 8 || b.N != 8 {
		t.Errorf("Box = %+v", b)
	}
	if b.Median != 4 {
		t.Errorf("Median = %v, want 4", b.Median)
	}
	if b.Q1 != 2 || b.Q3 != 6 {
		t.Errorf("Q1/Q3 = %v/%v, want 2/6", b.Q1, b.Q3)
	}
	if _, err := Box(nil); err == nil {
		t.Error("Box(nil) should fail")
	}
	if s := b.String(); s == "" {
		t.Error("empty box string")
	}
}

func TestMeanMedianPercentile(t *testing.T) {
	if Mean(nil) != 0 || Median(nil) != 0 {
		t.Error("empty-input helpers should return 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v", got)
	}
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("Median odd = %v", got)
	}
	if got := Median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("Median even = %v", got)
	}
	// Nearest-rank percentiles come from CDF quantiles.
	c, err := NewCDFFromValues([]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Quantile(0.95); got != 100 {
		t.Errorf("P95 = %v", got)
	}
	// Median must not mutate its input.
	in := []float64{9, 1, 5}
	Median(in)
	if in[0] != 9 || in[1] != 1 || in[2] != 5 {
		t.Error("Median mutated its input")
	}
}

func TestCDFAgainstSort(t *testing.T) {
	// Cross-check weighted quantiles against a brute-force expansion.
	rng := rand.New(rand.NewSource(21))
	obs := make([]WeightedValue, 50)
	var expanded []float64
	for i := range obs {
		v := math.Floor(rng.Float64() * 20)
		w := float64(1 + rng.Intn(5))
		obs[i] = WeightedValue{v, w}
		for k := 0; k < int(w); k++ {
			expanded = append(expanded, v)
		}
	}
	c, err := NewCDF(obs)
	if err != nil {
		t.Fatal(err)
	}
	sort.Float64s(expanded)
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		idx := int(math.Ceil(q*float64(len(expanded)))) - 1
		if idx < 0 {
			idx = 0
		}
		want := expanded[idx]
		if got := c.Quantile(q); got != want {
			t.Errorf("Quantile(%v) = %v, want %v", q, got, want)
		}
	}
}

// newCDFSortSlice is NewCDF as it was before it moved to slices.SortFunc:
// the reference TestNewCDFMatchesSortSlice holds it to.
func newCDFSortSlice(obs []WeightedValue) *CDF {
	var filtered []WeightedValue
	for _, o := range obs {
		if o.Weight > 0 {
			filtered = append(filtered, o)
		}
	}
	sort.Slice(filtered, func(i, j int) bool { return filtered[i].Value < filtered[j].Value })
	c := &CDF{minimum: filtered[0].Value, maximum: filtered[len(filtered)-1].Value}
	for _, o := range filtered {
		if n := len(c.values); n > 0 && c.values[n-1] == o.Value {
			c.total += o.Weight
			c.cumul[n-1] = c.total
			continue
		}
		c.total += o.Weight
		c.values = append(c.values, o.Value)
		c.cumul = append(c.cumul, c.total)
	}
	return c
}

// TestNewCDFMatchesSortSlice pins the sort's permutation: with heavily
// duplicated values and distinct weights, the order of equal values
// decides the float sums of merged weights, so any change shows up in
// the cumulative weights, quantiles and P bit for bit.
func TestNewCDFMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	bits := math.Float64bits
	for _, n := range []int{2, 7, 12, 13, 50, 333, 1000, 5000} {
		for _, distinct := range []int{1, 3, 17, 200} {
			obs := make([]WeightedValue, n)
			for i := range obs {
				obs[i] = WeightedValue{Value: float64(rng.Intn(distinct)) * 0.1, Weight: rng.ExpFloat64() * 1e3}
				if i%9 == 0 {
					obs[i].Weight = 0
				}
			}
			obs[0].Weight = 1 // at least one observation survives
			got, err := NewCDF(obs)
			if err != nil {
				t.Fatal(err)
			}
			want := newCDFSortSlice(obs)
			if len(got.values) != len(want.values) || bits(got.total) != bits(want.total) ||
				got.minimum != want.minimum || got.maximum != want.maximum {
				t.Fatalf("n=%d distinct=%d: CDF shape differs from the sort.Slice reference", n, distinct)
			}
			for i := range got.values {
				if got.values[i] != want.values[i] || bits(got.cumul[i]) != bits(want.cumul[i]) {
					t.Fatalf("n=%d distinct=%d: entry %d = (%v, %v), reference (%v, %v)",
						n, distinct, i, got.values[i], got.cumul[i], want.values[i], want.cumul[i])
				}
			}
			for q := 0.0; q <= 1; q += 0.01 {
				if g, w := got.Quantile(q), want.Quantile(q); bits(g) != bits(w) {
					t.Fatalf("n=%d distinct=%d: Quantile(%v) = %v, reference %v", n, distinct, q, g, w)
				}
			}
			for _, v := range want.values {
				if g, w := got.P(v), want.P(v); bits(g) != bits(w) {
					t.Fatalf("n=%d distinct=%d: P(%v) = %v, reference %v", n, distinct, v, g, w)
				}
			}
		}
	}
}

// TestNewCDFFromValuesMatchesNewCDF: the unweighted constructor builds
// the CDF NewCDF builds over weight-1 observations, bit for bit, on
// inputs with many ties (−0 and +0 among them), and fails where NewCDF
// fails, with the same error.
func TestNewCDFFromValuesMatchesNewCDF(t *testing.T) {
	weighed := func(vals []float64) []WeightedValue {
		obs := make([]WeightedValue, len(vals))
		for i, v := range vals {
			obs[i] = WeightedValue{Value: v, Weight: 1}
		}
		return obs
	}
	bits := math.Float64bits
	rng := rand.New(rand.NewSource(53))
	negZero := math.Copysign(0, -1)
	for _, n := range []int{1, 2, 7, 12, 13, 50, 333, 1000, 75000} {
		for _, distinct := range []int{1, 3, 17, 200, 1 << 30} {
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = float64(rng.Intn(distinct)-distinct/2) * 0.1
				if vals[i] == 0 && rng.Intn(2) == 0 {
					vals[i] = negZero
				}
			}
			in := append([]float64(nil), vals...)
			got, err := NewCDFFromValues(vals)
			if err != nil {
				t.Fatal(err)
			}
			for i := range vals {
				if bits(vals[i]) != bits(in[i]) {
					t.Fatalf("n=%d distinct=%d: input %d changed", n, distinct, i)
				}
			}
			want, err := NewCDF(weighed(vals))
			if err != nil {
				t.Fatal(err)
			}
			if len(got.values) != len(want.values) || bits(got.total) != bits(want.total) ||
				bits(got.minimum) != bits(want.minimum) || bits(got.maximum) != bits(want.maximum) {
				t.Fatalf("n=%d distinct=%d: CDF shape differs from NewCDF's", n, distinct)
			}
			for i := range want.values {
				if bits(got.values[i]) != bits(want.values[i]) || bits(got.cumul[i]) != bits(want.cumul[i]) {
					t.Fatalf("n=%d distinct=%d: entry %d = (%v, %v), NewCDF (%v, %v)",
						n, distinct, i, got.values[i], got.cumul[i], want.values[i], want.cumul[i])
				}
			}
		}
	}

	for _, vals := range [][]float64{nil, {}, {math.NaN()}, {1, math.Inf(1)}, {math.Inf(-1), 2}, {3, math.NaN(), math.Inf(1)}} {
		_, got := NewCDFFromValues(vals)
		_, want := NewCDF(weighed(vals))
		if got == nil || want == nil || got.Error() != want.Error() || errors.Is(got, ErrEmpty) != errors.Is(want, ErrEmpty) {
			t.Errorf("NewCDFFromValues(%v) err = %v, NewCDF's %v", vals, got, want)
		}
	}
}
