package ipaddr

import (
	"math/rand"
	"testing"
)

// BenchmarkIsSpecialPurpose measures reserved-space filtering.
func BenchmarkIsSpecialPurpose(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	addrs := make([]Addr, 1024)
	for i := range addrs {
		addrs[i] = Addr(rng.Uint32())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		IsSpecialPurpose(addrs[i%len(addrs)])
	}
}
