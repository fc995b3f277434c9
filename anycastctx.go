// Package anycastctx reproduces "Anycast in Context: A Tale of Two
// Systems" (Koch et al., SIGCOMM 2021) as a runnable system: a simulated
// Internet (AS topology, BGP anycast catchments, user populations), the
// two anycast services the paper studies — the root DNS letters and a
// Microsoft-style anycast CDN with nested rings — and the measurement
// methodology (geographic and latency inflation, per-user query
// amortization) that compares them in application context.
//
// Typical use:
//
//	w, err := anycastctx.BuildWorld(anycastctx.Config{Seed: 1})
//	...
//	res, err := anycastctx.RunExperimentCtx(context.Background(), w, "fig2a")
//	fmt.Println(res.Output)
//
// Every experiment in the paper's evaluation (Figures 1–14, Tables 1–5,
// and the appendix studies) has an entry in Experiments(); RunAllCtx runs
// them all.
package anycastctx

import (
	"context"

	"anycastctx/internal/world"
)

// Config configures world construction. It is an alias of the internal
// composition-root configuration.
type Config = world.Config

// World is the fully built simulation environment.
type World = world.World

// DITL scenario years.
const (
	DITL2018 = world.DITL2018
	DITL2020 = world.DITL2020
)

// NewWorld constructs a world shell without materializing any stage:
// stage keys are computed, the artifact store (if cfg.CacheDir is set) is
// opened, and every stage is left pending. Stages materialize only when
// demanded — through World.Demand or an experiment's declared Needs — so
// callers that touch a subset of the world never pay for the rest.
func NewWorld(cfg Config) (*World, error) {
	return world.New(cfg)
}

// BuildWorld constructs the simulated measurement environment. Equal
// configurations produce byte-identical worlds.
func BuildWorld(cfg Config) (*World, error) {
	return world.Build(context.Background(), cfg)
}

// TestScaleConfig returns a configuration small enough for fast tests and
// examples while preserving every qualitative behavior.
func TestScaleConfig(seed int64) Config {
	return world.TestScale(seed)
}
