package rng

import "math/rand"

// NewRand wraps a derived stream in a *rand.Rand for callers that need
// the stdlib distribution surface (Zipf, Perm, lognormal compositions).
// Hot loops that only need Float64/Intn/Norm/Exp should keep the Stream
// itself and skip this allocation.
func NewRand(seed int64, phase Phase, id uint64) *rand.Rand {
	s := Split(seed, phase, id)
	return rand.New(&s)
}
