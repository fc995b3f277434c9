package stats

import (
	"math/rand"
	"testing"
)

func benchObs(n int) []WeightedValue {
	rng := rand.New(rand.NewSource(7))
	obs := make([]WeightedValue, n)
	for i := range obs {
		obs[i] = WeightedValue{Value: rng.NormFloat64() * 40, Weight: rng.Float64() * 1000}
	}
	return obs
}

// BenchmarkNewCDF measures weighted-CDF construction at figure scale.
func BenchmarkNewCDF(b *testing.B) {
	obs := benchObs(20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewCDF(obs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewCDFFromValues measures unweighted construction on a
// fig12/fig13-sized latency sample with ties.
func BenchmarkNewCDFFromValues(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]float64, 75000)
	for i := range vals {
		vals[i] = float64(rng.Intn(5000)) * 0.1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewCDFFromValues(vals); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCDFQuantile measures quantile queries.
func BenchmarkCDFQuantile(b *testing.B) {
	c, err := NewCDF(benchObs(20000))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Quantile(float64(i%100) / 100)
	}
}

// BenchmarkCDFP measures cumulative-probability lookups.
func BenchmarkCDFP(b *testing.B) {
	c, err := NewCDF(benchObs(20000))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.P(float64(i%200) - 100)
	}
}
