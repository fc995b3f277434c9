// Package world is the composition root: it builds the simulated
// measurement environment — regions, AS topology, user population, root
// zone, query rates, root letter deployments, the CDN, user-count
// datasets, and the Atlas platform — from one seeded configuration, with
// presets matching the paper's 2018 and 2020 DITL scenarios.
//
// The build is a declarative stage graph (internal/stage): experiments
// demand the stages they need and nothing else is computed, and stages
// with a binary codec persist their output in a content-addressed
// artifact store (internal/artifact) so a warm run loads instead of
// recomputing. The hard contract is that a warm run is byte-identical to
// a cold one at every scale and worker count; the store can only ever
// make a run faster, never different.
package world

import (
	"context"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"

	"anycastctx/internal/anycastnet"
	"anycastctx/internal/artifact"
	"anycastctx/internal/atlas"
	"anycastctx/internal/bgp"
	"anycastctx/internal/cdn"
	"anycastctx/internal/ditl"
	"anycastctx/internal/dnssim"
	"anycastctx/internal/faults"
	"anycastctx/internal/geo"
	"anycastctx/internal/latency"
	"anycastctx/internal/obs"
	"anycastctx/internal/stage"
	"anycastctx/internal/topology"
	"anycastctx/internal/users"
)

// Observability handles. Stage work is spanned under "world.<stage>"
// (grouped under "world.build" for a classic full build); the gauges
// describe the last world materialized in this process. Per-stage
// hit/miss/compute counters live in stages.go.
var (
	obsBuilds     = obs.NewCounter("world.builds")
	obsRegions    = obs.NewGauge("world.regions")
	obsEyeballs   = obs.NewGauge("world.eyeball_ases")
	obsRecursives = obs.NewGauge("world.recursives")
	obsLetters    = obs.NewGauge("world.letters")
	obsProbes     = obs.NewGauge("world.atlas_probes")
)

// Year selects the DITL scenario.
type Year int

// Supported DITL scenarios.
const (
	DITL2018 Year = 2018
	DITL2020 Year = 2020
)

// Config assembles a world. The zero value plus a seed builds the
// paper-scale 2018 scenario.
type Config struct {
	// Seed drives every random choice; equal configs build equal worlds.
	Seed int64
	// Scale in (0, 1] shrinks AS counts and probe counts for fast tests.
	Scale float64
	// Year picks the letter inventory (default DITL2018).
	Year Year
	// Faults is the fault-injection policy threaded into the capture
	// campaign (site withdrawal) and CDN telemetry planes (row drops).
	// The zero value injects nothing and leaves every output
	// byte-identical to a fault-free build.
	Faults faults.Policy
	// CacheDir, when set, is the artifact store directory: persisted
	// stages are loaded from it when present and saved to it after
	// compute. It is deliberately excluded from the configuration hash —
	// where artifacts live must never change what they contain.
	CacheDir string
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.Year == 0 {
		c.Year = DITL2018
	}
	return c
}

// World dimensions that every configuration shares.
const (
	// totalUsers is the modeled global user count.
	totalUsers float64 = 1.2e9
	// numTLDs sizes the root zone.
	numTLDs = 1000
	// numProbes sizes the Atlas platform before scaling.
	numProbes = 1000
)

// scaleWarn dedups the warning for an unusable ANYCASTCTX_TEST_SCALE
// value by the offending string, so a bad CI variable is visible exactly
// once per distinct value — not suppressed for the rest of the process
// after the first build warned (a once-guard here used to hide the
// warning from every later Build, including ones with a different bad
// value). scaleWarnTo is swapped by the regression test.
var scaleWarn = struct {
	mu   sync.Mutex
	seen map[string]bool
}{seen: make(map[string]bool)}

var scaleWarnTo io.Writer = os.Stderr

// ScaleFromEnv returns def, overridden by the ANYCASTCTX_TEST_SCALE
// environment variable when it parses to a value in (0, 1]. It is the one
// home of that parsing rule (tests, benchmarks, and CI all shrink worlds
// through it). An unparseable or out-of-range value falls back to def and
// warns on stderr (once per distinct value) instead of being silently
// ignored.
func ScaleFromEnv(def float64) float64 {
	s := os.Getenv("ANYCASTCTX_TEST_SCALE")
	if s == "" {
		return def
	}
	// Asserted as validity, not invalidity: `v <= 0 || v > 1` is false
	// for NaN, which would pass an unusable scale through.
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || !(v > 0 && v <= 1) {
		scaleWarn.mu.Lock()
		if !scaleWarn.seen[s] {
			scaleWarn.seen[s] = true
			fmt.Fprintf(scaleWarnTo,
				"world: ignoring ANYCASTCTX_TEST_SCALE=%q (want a number in (0, 1]); using %g\n", s, def)
		}
		scaleWarn.mu.Unlock()
		return def
	}
	return v
}

// TestScale returns a configuration small enough for unit tests. The
// ANYCASTCTX_TEST_SCALE environment variable overrides the scale (CI uses
// it to shrink worlds further); see ScaleFromEnv.
func TestScale(seed int64) Config {
	return Config{Seed: seed, Scale: ScaleFromEnv(0.12)}
}

// ClassicStages is the stage set the historical monolithic build
// materialized eagerly: everything except the CDN telemetry tables and
// the DITL∩CDN join.
func ClassicStages() []stage.ID {
	return []stage.ID{
		stage.Regions, stage.Topology, stage.Population, stage.Zone,
		stage.Rates, stage.Letters, stage.Routes, stage.Campaign,
		stage.CDN, stage.UserCounts, stage.Atlas, stage.Locations,
	}
}

// cell guards one stage's materialization: the once makes demand safe
// under concurrent experiments, and err latches a failed compute so every
// demander sees the same outcome.
type cell struct {
	once sync.Once
	err  error
}

// World is the simulated environment, materialized stage by stage. Zero
// or more stages are live at any time. Demand is the only way to make a
// stage live, and it reports the stage's errors; the accessors only read,
// so a caller demands every stage it reads first.
type World struct {
	// Cfg is the (defaulted) configuration the world was created from.
	Cfg Config

	keys  map[stage.ID]string
	store *artifact.Store

	cells map[stage.ID]*cell

	statusMu sync.Mutex
	status   map[stage.ID]*StageStatus

	model *latency.Model

	regions []geo.Region
	graph   *topology.Graph
	// The topology stage's record of the ASes it added for later stages:
	// the public DNS hosts, each letter's sites, and the CDN's network.
	publicDNS   []topology.ASN
	letterSites [][]bgp.Site
	cdnAS       *topology.AS

	pop        *users.Population
	zone       *dnssim.Zone
	rates      []dnssim.Rates
	letters    []*anycastnet.Deployment
	routes     *ditl.RouteTable
	campaign   *ditl.Campaign
	cdnNet     *cdn.CDN
	cdnCounts  *users.CDNCounts
	apnic      *users.APNICCounts
	atlasPlat  *atlas.Platform
	locations  []cdn.Location
	serverLogs []cdn.ServerLogRow
	clientRows []cdn.ClientMeasurementRow
	join       *ditl.Join
}

// New validates cfg and returns an empty world: no stage is materialized
// until demanded. When cfg.CacheDir is set the artifact store is opened
// (and created) immediately, so a doomed cache directory fails here
// rather than mid-experiment.
func New(cfg Config) (*World, error) {
	cfg = cfg.withDefaults()
	// NaN makes `cfg.Scale <= 0 || cfg.Scale > 1` false, so the valid
	// range is asserted directly instead.
	if !(cfg.Scale > 0 && cfg.Scale <= 1) {
		return nil, fmt.Errorf("world: scale %v out of (0, 1]", cfg.Scale)
	}
	switch cfg.Year {
	case DITL2018, DITL2020:
	default:
		return nil, fmt.Errorf("world: unsupported DITL year %d", cfg.Year)
	}
	w := &World{
		Cfg:    cfg,
		keys:   stage.Keys(configHash(cfg)),
		cells:  make(map[stage.ID]*cell, len(stage.All())),
		status: make(map[stage.ID]*StageStatus, len(stage.All())),
		model:  latency.DefaultModel(),
	}
	for _, id := range stage.All() {
		w.cells[id] = &cell{}
	}
	if cfg.CacheDir != "" {
		st, err := artifact.Open(cfg.CacheDir)
		if err != nil {
			return nil, fmt.Errorf("world: %w", err)
		}
		w.store = st
	}
	return w, nil
}

// Build constructs the classic eager world: every stage the monolithic
// build used to compute, in one call. The span context parents the
// "world.build" phase tree; pass context.Background() when not tracing.
// Demand-driven callers use New + Demand instead.
func Build(ctx context.Context, cfg Config) (*World, error) {
	w, err := New(cfg)
	if err != nil {
		return nil, err
	}
	ctx, build := obs.StartSpanCtx(ctx, "world.build")
	defer build.End()
	obsBuilds.Inc()
	if err := w.Demand(ctx, ClassicStages()...); err != nil {
		return nil, err
	}
	return w, nil
}

// Demand materializes ids (and, transitively, what they need). A
// persisted stage found in the artifact store is loaded — materializing
// only its load-deps — and anything else is computed, cached in memory,
// and saved to the store when persistable. Demanding an already-live
// stage is free. Safe for concurrent use.
func (w *World) Demand(ctx context.Context, ids ...stage.ID) error {
	for _, id := range ids {
		if !stage.Valid(id) {
			return fmt.Errorf("world: unknown stage %q", id)
		}
		if err := w.materialize(ctx, id); err != nil {
			return err
		}
	}
	return nil
}

// Key returns the stage's content-addressed artifact key for this
// world's configuration.
func (w *World) Key(id stage.ID) string { return w.keys[id] }

// Store returns the artifact store backing this world (nil without a
// cache directory, and always nil for overlays).
func (w *World) Store() *artifact.Store { return w.store }

func (w *World) materialize(ctx context.Context, id stage.ID) error {
	c := w.cells[id]
	c.once.Do(func() { c.err = w.runStage(ctx, id) })
	return c.err
}

// Accessors. Each reads its stage's output: nil until the stage is
// demanded, since only Demand materializes a stage.

// Regions returns the geographic regions.
func (w *World) Regions() []geo.Region { return w.regions }

// Graph returns the AS topology: every AS and explicit peering edge of
// the world, whatever else has been demanded.
func (w *World) Graph() *topology.Graph { return w.graph }

// Model returns the latency model (not a stage: it is a pure value
// derived from no inputs).
func (w *World) Model() *latency.Model { return w.model }

// Pop returns the user population.
func (w *World) Pop() *users.Population { return w.pop }

// Zone returns the root zone.
func (w *World) Zone() *dnssim.Zone { return w.zone }

// Rates returns the per-recursive daily query-rate profiles.
func (w *World) Rates() []dnssim.Rates { return w.rates }

// Letters returns the root letter deployments.
func (w *World) Letters() []*anycastnet.Deployment { return w.letters }

// Campaign returns the DITL measurement campaign.
func (w *World) Campaign() *ditl.Campaign { return w.campaign }

// CDN returns the CDN network.
func (w *World) CDN() *cdn.CDN { return w.cdnNet }

// CDNCounts returns the CDN-observed user counts.
func (w *World) CDNCounts() *users.CDNCounts { return w.cdnCounts }

// APNIC returns the APNIC-style per-AS user counts.
func (w *World) APNIC() *users.APNICCounts { return w.apnic }

// Atlas returns the probe platform.
func (w *World) Atlas() *atlas.Platform { return w.atlasPlat }

// Locations returns the ⟨region, AS⟩ user locations.
func (w *World) Locations() []cdn.Location { return w.locations }

// ServerLogs returns the server-side CDN telemetry table (the
// server_logs stage).
func (w *World) ServerLogs() []cdn.ServerLogRow { return w.serverLogs }

// ClientRows returns the client-side CDN telemetry table (the
// client_rows stage).
func (w *World) ClientRows() []cdn.ClientMeasurementRow { return w.clientRows }

// JoinCtx returns the /24-level DITL∩CDN join (the join stage). ctx is
// unused: the join materializes only through Demand.
func (w *World) JoinCtx(ctx context.Context) *ditl.Join { return w.join }

// Overlay returns a copy of w for scenario evaluation with g, letters, c,
// rates, camp and camp's route table in place of the base's outputs, and
// join, when non-nil, as the copy's join (one already computed on the
// same population, rates and CDN counts).
// The classic stages are demanded on the base first and everything not
// replaced is shared with it. The copy's join is demanded unless given;
// its telemetry stages start pending so they never alias the base's. The
// copy has no artifact store — a mutated world must never write into the
// base's cache.
func (w *World) Overlay(ctx context.Context, g *topology.Graph, letters []*anycastnet.Deployment, c *cdn.CDN,
	rates []dnssim.Rates, camp *ditl.Campaign, join *ditl.Join) (*World, error) {
	if err := w.Demand(ctx, ClassicStages()...); err != nil {
		return nil, err
	}
	ov := &World{
		Cfg:    w.Cfg,
		keys:   w.keys,
		cells:  make(map[stage.ID]*cell, len(stage.All())),
		status: make(map[stage.ID]*StageStatus, 4),
		model:  w.model,

		regions:   w.regions,
		graph:     g,
		pop:       w.pop,
		zone:      w.zone,
		rates:     rates,
		letters:   letters,
		routes:    camp.RouteTable(),
		campaign:  camp,
		cdnNet:    c,
		cdnCounts: w.cdnCounts,
		apnic:     w.apnic,
		atlasPlat: w.atlasPlat,
		locations: w.locations,
		join:      join,
	}
	for _, id := range stage.All() {
		ov.cells[id] = &cell{}
	}
	live := ClassicStages()
	if join != nil {
		live = append(live, stage.Join)
	}
	for _, id := range live {
		ov.cells[id].once.Do(func() {})
	}
	if err := ov.Demand(ctx, stage.Join); err != nil {
		return nil, err
	}
	return ov, nil
}

func scaleInt(v int, scale float64, floor int) int {
	s := int(float64(v) * scale)
	if s < floor {
		s = floor
	}
	if s > v {
		s = v
	}
	return s
}
