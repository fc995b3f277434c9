package world

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"time"

	"anycastctx/internal/anycastnet"
	"anycastctx/internal/artifact"
	"anycastctx/internal/atlas"
	"anycastctx/internal/cdn"
	"anycastctx/internal/ditl"
	"anycastctx/internal/dnssim"
	"anycastctx/internal/geo"
	"anycastctx/internal/obs"
	"anycastctx/internal/rng"
	"anycastctx/internal/stage"
	"anycastctx/internal/topology"
	"anycastctx/internal/users"
)

// Per-stage cache counters: hits (artifact loaded), misses (persisted
// stage had to compute — absent or corrupt artifact), computes (stage
// body ran, persisted or not).
var (
	stageHits     = map[stage.ID]*obs.Counter{}
	stageMisses   = map[stage.ID]*obs.Counter{}
	stageComputes = map[stage.ID]*obs.Counter{}
)

func init() {
	for _, id := range stage.All() {
		stageHits[id] = obs.NewCounter("world.stage." + string(id) + ".hits")
		stageMisses[id] = obs.NewCounter("world.stage." + string(id) + ".misses")
		stageComputes[id] = obs.NewCounter("world.stage." + string(id) + ".computes")
	}
}

// StageStatus describes one stage's materialization in one world.
type StageStatus struct {
	ID        stage.ID `json:"id"`
	Key       string   `json:"key"`
	Persisted bool     `json:"persisted"`
	// Outcome is "pending" (never demanded), "loaded" (artifact hit), or
	// "computed".
	Outcome string `json:"outcome"`
	// Bytes is the artifact payload size (loaded or saved); 0 for
	// unpersisted stages.
	Bytes int64 `json:"bytes,omitempty"`
	// LoadNs and ComputeNs are wall-clock durations of the path taken.
	LoadNs    int64 `json:"load_ns,omitempty"`
	ComputeNs int64 `json:"compute_ns,omitempty"`
	// Corrupt records that a stored artifact existed but failed
	// validation and the stage fell back to computing.
	Corrupt bool `json:"corrupt,omitempty"`
}

// StageStatuses reports every stage of this world in topological order,
// including ones still pending — the raw material for -stages, -explain,
// and the run report.
func (w *World) StageStatuses() []StageStatus {
	w.statusMu.Lock()
	defer w.statusMu.Unlock()
	out := make([]StageStatus, 0, len(stage.All()))
	for _, id := range stage.All() {
		if st, ok := w.status[id]; ok {
			out = append(out, *st)
			continue
		}
		info, _ := stage.Get(id)
		out = append(out, StageStatus{
			ID: id, Key: w.keys[id], Persisted: info.Persisted, Outcome: "pending",
		})
	}
	return out
}

func (w *World) setStatus(st StageStatus) {
	w.statusMu.Lock()
	cp := st
	w.status[st.ID] = &cp
	w.statusMu.Unlock()
}

// configHash digests the configuration the stage keys derive from.
// CacheDir is zeroed first: pointing two runs at different directories
// must yield the same keys, or the store could never be shared.
func configHash(cfg Config) string {
	cfg.CacheDir = ""
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", cfg)))
	return hex.EncodeToString(sum[:])
}

// runStage materializes one stage: load from the artifact store when
// possible (demanding only load-deps), otherwise demand full deps and
// compute, saving the result when persistable. Called exactly once per
// stage per world, under the cell's once-guard.
func (w *World) runStage(ctx context.Context, id stage.ID) error {
	info, _ := stage.Get(id)
	ctx, sp := obs.StartSpanCtx(ctx, "world."+string(id))
	defer sp.End()

	st := StageStatus{ID: id, Key: w.keys[id], Persisted: info.Persisted}
	if info.Persisted && w.store != nil {
		t0 := time.Now()
		blob, err := w.store.Load(string(id), w.keys[id])
		switch {
		case err == nil:
			for _, d := range info.LoadDeps {
				if derr := w.materialize(ctx, d); derr != nil {
					return derr
				}
			}
			if derr := w.decodeStage(id, blob); derr == nil {
				stageHits[id].Inc()
				st.Outcome = "loaded"
				st.Bytes = int64(len(blob))
				st.LoadNs = time.Since(t0).Nanoseconds()
				w.setStatus(st)
				return nil
			}
			// A checksummed blob that fails its typed decode is stale
			// beyond its key or shaped by a codec bug; recompute wins
			// either way.
			st.Corrupt = true
		case errors.Is(err, artifact.ErrMiss):
			// plain miss
		default:
			st.Corrupt = true
		}
	}

	for _, d := range info.Deps {
		if err := w.materialize(ctx, d); err != nil {
			return err
		}
	}
	t0 := time.Now()
	if err := w.computeStage(ctx, id); err != nil {
		return err
	}
	stageComputes[id].Inc()
	st.Outcome = "computed"
	st.ComputeNs = time.Since(t0).Nanoseconds()
	if info.Persisted {
		if w.store != nil {
			stageMisses[id].Inc()
			blob, err := w.encodeStage(id)
			if err != nil {
				return err
			}
			st.Bytes = int64(len(blob))
			if err := w.store.Save(string(id), w.keys[id], blob); err != nil {
				return fmt.Errorf("world: persisting %s: %w", id, err)
			}
		}
	}
	w.setStatus(st)
	return nil
}

// computeStage runs one stage's body against live upstream fields. Deps
// are already materialized when this runs.
func (w *World) computeStage(ctx context.Context, id stage.ID) error {
	cfg := w.Cfg
	switch id {
	case stage.Regions:
		w.regions = geo.GenerateRegions(geo.PaperRegionCounts, rng.NewRand(cfg.Seed, rng.PhaseRegions, 0))
		obsRegions.Set(float64(len(w.regions)))

	case stage.Topology:
		topoCfg := topology.DefaultConfig()
		topoCfg.Seed = cfg.Seed + 1
		topoCfg.NumTransit = scaleInt(topoCfg.NumTransit, cfg.Scale, 20)
		topoCfg.NumEyeball = scaleInt(topoCfg.NumEyeball, cfg.Scale, 200)
		g, err := topology.New(topoCfg, w.regions)
		if err != nil {
			return fmt.Errorf("world: topology: %w", err)
		}
		// Every other AS joins here too, in allocation order — the public
		// DNS hosts, each letter's site hosts, the CDN and its eyeball
		// peering — so no later stage writes the graph.
		w.publicDNS = users.AddPublicDNS(g)
		letterRand := rng.NewRand(cfg.Seed, rng.PhaseLetters, 0)
		for _, spec := range letterSpecs(cfg.Year) {
			sites, err := anycastnet.AddLetterSites(g, spec, letterRand)
			if err != nil {
				return fmt.Errorf("world: topology: %w", err)
			}
			w.letterSites = append(w.letterSites, sites)
		}
		if w.cdnAS, err = cdn.AddNetwork(g, cdn.Config{}, cfg.Seed); err != nil {
			return fmt.Errorf("world: topology: %w", err)
		}
		w.graph = g
		obsEyeballs.Set(float64(len(g.Eyeballs())))

	case stage.Population:
		pop, err := users.Build(w.graph, w.publicDNS, totalUsers, cfg.Seed)
		if err != nil {
			return fmt.Errorf("world: population: %w", err)
		}
		w.pop = pop
		obsRecursives.Set(float64(len(pop.Recursives)))

	case stage.Zone:
		w.zone = dnssim.NewZone(numTLDs, cfg.Seed)

	case stage.Rates:
		w.rates = dnssim.ComputeRates(w.pop, w.zone, cfg.Seed)

	case stage.Letters:
		specs := letterSpecs(cfg.Year)
		letters := make([]*anycastnet.Deployment, len(specs))
		for i, spec := range specs {
			d, err := anycastnet.NewDeployment(w.graph, spec.Letter, w.letterSites[i])
			if err != nil {
				return fmt.Errorf("world: letters: %w", err)
			}
			letters[i] = d
		}
		w.letters = letters
		obsLetters.Set(float64(len(letters)))

	case stage.Routes:
		t, err := ditl.BuildRouteTable(ctx, w.letters, w.pop, w.model)
		if err != nil {
			return fmt.Errorf("world: routes: %w", err)
		}
		w.routes = t

	case stage.Campaign:
		camp, err := ditl.Assemble(ctx, w.routes, w.letters, w.pop, w.zone, w.rates, w.model, ditl.Config{}, cfg.Seed)
		if err != nil {
			return fmt.Errorf("world: campaign: %w", err)
		}
		camp.Faults = cfg.Faults
		w.campaign = camp

	case stage.CDN:
		cdnNet, err := cdn.Build(ctx, w.graph, w.cdnAS, w.model)
		if err != nil {
			return fmt.Errorf("world: cdn: %w", err)
		}
		cdnNet.Faults = cfg.Faults
		w.cdnNet = cdnNet

	case stage.UserCounts:
		w.cdnCounts = users.BuildCDNCounts(w.pop, cfg.Seed)
		w.apnic = users.BuildAPNICCounts(w.graph, w.pop, cfg.Seed)

	case stage.Atlas:
		probes := scaleInt(numProbes, cfg.Scale, 100)
		plat, err := atlas.Deploy(w.graph, w.model, probes, cfg.Seed)
		if err != nil {
			return fmt.Errorf("world: atlas: %w", err)
		}
		w.atlasPlat = plat
		obsProbes.Set(float64(probes))

	case stage.Locations:
		w.locations = cdn.Locations(w.graph, totalUsers)

	case stage.ServerLogs:
		w.serverLogs = w.cdnNet.ServerSideLogsCtx(ctx, w.locations, cfg.Seed*7919)

	case stage.ClientRows:
		w.clientRows = w.cdnNet.ClientMeasurementsCtx(ctx, w.locations, cfg.Seed*7919)

	case stage.Join:
		w.join = w.campaign.JoinCDNCtx(ctx, w.cdnCounts, false)

	default:
		return fmt.Errorf("world: no compute for stage %q", id)
	}
	return nil
}

// letterSpecs returns the root letter inventory of the DITL year.
func letterSpecs(y Year) []anycastnet.LetterSpec {
	if y == DITL2020 {
		return anycastnet.Letters2020()
	}
	return anycastnet.Letters2018()
}

// encodeStage serializes a live persisted stage's output.
func (w *World) encodeStage(id stage.ID) ([]byte, error) {
	switch id {
	case stage.Rates:
		return dnssim.EncodeRates(w.rates), nil
	case stage.Routes:
		return w.routes.EncodeArtifact(), nil
	case stage.Campaign:
		return w.campaign.EncodeArtifact(), nil
	case stage.ServerLogs:
		return cdn.EncodeServerLogs(w.serverLogs), nil
	case stage.ClientRows:
		return cdn.EncodeClientRows(w.clientRows), nil
	case stage.Join:
		return ditl.EncodeJoin(w.join), nil
	}
	return nil, fmt.Errorf("world: no codec for stage %q", id)
}

// decodeStage rebuilds one stage's output from a verified blob, with its
// load-deps live. Any error falls back to compute in runStage.
func (w *World) decodeStage(id stage.ID, blob []byte) error {
	switch id {
	case stage.Rates:
		rates, err := dnssim.DecodeRates(blob, w.pop)
		if err != nil {
			return err
		}
		w.rates = rates
		return nil
	case stage.Routes:
		t, err := ditl.DecodeRouteTable(blob, w.letters, w.pop)
		if err != nil {
			return err
		}
		w.routes = t
		return nil
	case stage.Campaign:
		camp, err := ditl.DecodeCampaignArtifact(blob, w.routes, w.letters, w.pop, w.zone, w.rates, w.model, ditl.Config{})
		if err != nil {
			return err
		}
		camp.Faults = w.Cfg.Faults
		w.campaign = camp
		return nil
	case stage.ServerLogs:
		rows, err := cdn.DecodeServerLogs(blob)
		if err != nil {
			return err
		}
		w.serverLogs = rows
		return nil
	case stage.ClientRows:
		rows, err := cdn.DecodeClientRows(blob)
		if err != nil {
			return err
		}
		w.clientRows = rows
		return nil
	case stage.Join:
		j, err := ditl.DecodeJoin(blob)
		if err != nil {
			return err
		}
		w.join = j
		return nil
	}
	return fmt.Errorf("world: no codec for stage %q", id)
}
