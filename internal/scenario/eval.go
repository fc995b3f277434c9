package scenario

import (
	"context"
	"fmt"
	"strings"

	"anycastctx/internal/anycastnet"
	"anycastctx/internal/core"
	"anycastctx/internal/obs"
	"anycastctx/internal/report"
	"anycastctx/internal/stage"
	"anycastctx/internal/stats"
	"anycastctx/internal/topology"
	"anycastctx/internal/world"
)

var (
	obsEvals        = obs.NewCounter("scenario.evals")
	obsFullRebuilds = obs.NewCounter("scenario.full_rebuilds")
)

// cdfXs are the sample points of the before/after inflation CDF tables.
var cdfXs = []float64{0, 1, 2, 5, 10, 20, 50, 100, 200}

// Baseline wraps the unmutated world with lazily cached per-deployment
// inflation observations, so evaluating several scenarios against one
// base world never recomputes the "before" side. Not safe for concurrent
// Eval calls.
type Baseline struct {
	W          *world.World
	letterInfl map[int][]stats.WeightedValue
	ringInfl   map[int][]stats.WeightedValue
}

// NewBaseline prepares w as the before-side of scenario evaluations.
func NewBaseline(w *world.World) *Baseline {
	return &Baseline{
		W:          w,
		letterInfl: map[int][]stats.WeightedValue{},
		ringInfl:   map[int][]stats.WeightedValue{},
	}
}

func (b *Baseline) letterInflation(ctx context.Context, li int) []stats.WeightedValue {
	if v, ok := b.letterInfl[li]; ok {
		return v
	}
	v := core.GeoInflationLetter(b.W.Campaign(), li, b.W.JoinCtx(ctx))
	b.letterInfl[li] = v
	return v
}

func (b *Baseline) ringInflation(ci int) []stats.WeightedValue {
	if v, ok := b.ringInfl[ci]; ok {
		return v
	}
	v := core.CDNGeoInflationRoutes(b.W.CDN().Rings[ci], b.W.Locations())
	b.ringInfl[ci] = v
	return v
}

// Options tunes one evaluation.
type Options struct {
	// FullRebuild evaluates the spec with every incremental shortcut
	// disabled: fresh resolvers for all deployments and a full campaign
	// reassembly. It is the oracle the incremental path is byte-compared
	// against (tests, -scenario-oracle).
	FullRebuild bool
}

// Result is one evaluated scenario: the mutated overlay world plus the
// metadata to render before/after deltas against the baseline.
type Result struct {
	Spec Spec
	Base *Baseline
	// World is the mutated overlay. Its campaign, catchments, and join
	// are fully usable — experiments and invariant checkers run on it
	// like on a built world.
	World *world.World

	app *applied
}

// Eval applies spec to the baseline's world and returns the evaluated
// result. The incremental path (default) reuses every route-cache entry
// and campaign cell the mutations provably cannot change; with
// opts.FullRebuild everything is recomputed from scratch. Both paths
// must produce byte-identical reports — that is the engine's contract.
// Eval first demands the base stages that evaluations and reports read:
// the classic set and the join.
func Eval(ctx context.Context, b *Baseline, spec Spec, opts Options) (*Result, error) {
	ctx, span := obs.StartSpanCtx(ctx, "scenario.eval")
	defer span.End()
	obsEvals.Inc()
	if opts.FullRebuild {
		obsFullRebuilds.Inc()
	}
	if err := b.W.Demand(ctx, append(world.ClassicStages(), stage.Join)...); err != nil {
		return nil, err
	}
	app, err := apply(ctx, b.W, spec, opts.FullRebuild)
	if err != nil {
		return nil, err
	}
	return &Result{Spec: spec, Base: b, World: app.ov, app: app}, nil
}

// Report renders the scenario's before/after deltas. The output depends
// only on the base and mutated worlds' contents — never on how much work
// the incremental path skipped — so incremental and full-rebuild
// evaluations of one spec render identical bytes.
func (r *Result) Report(ctx context.Context) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "scenario %s", r.Spec.Name)
	if r.Spec.Description != "" {
		fmt.Fprintf(&sb, ": %s", r.Spec.Description)
	}
	sb.WriteByte('\n')

	mt := report.Table{Headers: []string{"#", "mutation"}}
	for i, m := range r.Spec.Mutations {
		mt.AddRow(fmt.Sprintf("%d", i+1), m.String())
	}
	if len(r.Spec.Mutations) == 0 {
		mt.AddRow("-", "none (no-op scenario)")
	}
	sb.WriteString(mt.Render())
	sb.WriteByte('\n')

	r.renderCatchmentShift(&sb)
	for _, li := range r.app.mutatedLetters {
		r.renderLetter(ctx, &sb, li)
	}
	for _, ci := range r.app.mutatedRings {
		r.renderRing(&sb, ci)
	}
	if r.app.surge != 0 {
		r.renderSurge(ctx, &sb)
	}
	return sb.String()
}

// renderCatchmentShift tabulates, per mutated deployment, how much of
// the AS population (and its user weight) lands on a different physical
// site than before.
func (r *Result) renderCatchmentShift(sb *strings.Builder) {
	if len(r.app.mutatedLetters) == 0 && len(r.app.mutatedRings) == 0 {
		return
	}
	t := report.Table{
		Title:   "catchment shift (eyeball ASes landing on a different physical site)",
		Headers: []string{"deployment", "sites", "moved AS %", "moved user %"},
	}
	srcs := r.Base.W.Graph().Eyeballs()
	for _, li := range r.app.mutatedLetters {
		base, mut := r.Base.W.Letters()[li], r.World.Letters()[li]
		asPct, userPct := catchmentShift(r.Base.W.Graph(), srcs, base, mut, r.app.letterRemap[li])
		t.AddRow("letter "+base.Name,
			fmt.Sprintf("%d -> %d", len(base.Sites), len(mut.Sites)),
			fmt.Sprintf("%.1f", asPct), fmt.Sprintf("%.1f", userPct))
	}
	for _, ci := range r.app.mutatedRings {
		base, mut := r.Base.W.CDN().Rings[ci], r.World.CDN().Rings[ci]
		asPct, userPct := catchmentShift(r.Base.W.Graph(), srcs, base.Deployment, mut.Deployment, nil)
		t.AddRow("ring "+base.Name,
			fmt.Sprintf("%d -> %d", base.Size(), mut.Size()),
			fmt.Sprintf("%.1f", asPct), fmt.Sprintf("%.1f", userPct))
	}
	sb.WriteString(t.Render())
	sb.WriteByte('\n')
}

// catchmentShift iterates srcs in slice order (a map would wobble the
// float sums) and counts sources whose physical site changed, mapping
// base site IDs through remap (nil = identity).
func catchmentShift(g *topology.Graph, srcs []topology.ASN,
	base, mut *anycastnet.Deployment, remap []int) (asPct, userPct float64) {
	var moved, movedW, totalW float64
	for _, src := range srcs {
		w := g.AS(src).UserWeight
		totalW += w
		brt, bok := base.Route(src)
		mrt, mok := mut.Route(src)
		changed := bok != mok
		if !changed && bok {
			p := brt.SiteID
			if remap != nil {
				p = remap[brt.SiteID]
			}
			changed = p != mrt.SiteID
		}
		if changed {
			moved++
			movedW += w
		}
	}
	if len(srcs) == 0 || totalW == 0 {
		return 0, 0
	}
	return 100 * moved / float64(len(srcs)), 100 * movedW / totalW
}

func (r *Result) renderLetter(ctx context.Context, sb *strings.Builder, li int) {
	name := r.Base.W.Letters()[li].Name
	baseObs := r.Base.letterInflation(ctx, li)
	mutObs := core.GeoInflationLetter(r.World.Campaign(), li, r.World.JoinCtx(ctx))
	r.renderInflation(sb, "letter "+name, baseObs, mutObs)
}

func (r *Result) renderRing(sb *strings.Builder, ci int) {
	name := r.Base.W.CDN().Rings[ci].Name
	baseObs := r.Base.ringInflation(ci)
	mutObs := core.CDNGeoInflationRoutes(r.World.CDN().Rings[ci], r.World.Locations())
	r.renderInflation(sb, "ring "+name+" (route-only)", baseObs, mutObs)
}

// renderInflation renders the before/after delta table and CDF for one
// deployment's user-weighted geographic inflation.
func (r *Result) renderInflation(sb *strings.Builder, label string, baseObs, mutObs []stats.WeightedValue) {
	cb, errB := stats.NewCDF(baseObs)
	cm, errM := stats.NewCDF(mutObs)
	if errB != nil || errM != nil {
		fmt.Fprintf(sb, "geo inflation — %s: no observations\n\n", label)
		return
	}
	t := report.Table{
		Title:   "geo inflation — " + label,
		Headers: []string{"metric", "base", "scenario", "delta"},
	}
	t.AddDelta("median ms", "%.2f", cb.Median(), cm.Median())
	t.AddDelta("mean ms", "%.2f", cb.Mean(), cm.Mean())
	t.AddDelta("p90 ms", "%.2f", cb.Quantile(0.9), cm.Quantile(0.9))
	t.AddDelta("efficiency (<=1ms)", "%.3f", core.Efficiency(baseObs, 1), core.Efficiency(mutObs, 1))
	t.AddDelta("frac > 20ms", "%.3f", cb.FractionAbove(20), cm.FractionAbove(20))
	sb.WriteString(t.Render())
	sb.WriteString(report.RenderCDFs("geo inflation CDF — "+label, "ms", cdfXs, []report.Series{
		{Name: "base", CDF: cb},
		{Name: "scenario", CDF: cm},
	}))
	sb.WriteByte('\n')
}

// renderSurge renders the queries/user/day shift of a traffic surge over
// the DITL∩CDN join.
func (r *Result) renderSurge(ctx context.Context, sb *strings.Builder) {
	baseObs := core.QueriesPerUserCDN(r.Base.W.Campaign(), r.Base.W.JoinCtx(ctx), core.ValidOnly)
	mutObs := core.QueriesPerUserCDN(r.World.Campaign(), r.World.JoinCtx(ctx), core.ValidOnly)
	cb, errB := stats.NewCDF(baseObs)
	cm, errM := stats.NewCDF(mutObs)
	if errB != nil || errM != nil {
		fmt.Fprintf(sb, "queries/user/day: no observations\n\n")
		return
	}
	t := report.Table{
		Title:   fmt.Sprintf("queries/user/day (valid, DITL∩CDN) at %gx volume", r.app.surge),
		Headers: []string{"metric", "base", "scenario", "delta"},
	}
	t.AddDelta("median", "%.1f", cb.Median(), cm.Median())
	t.AddDelta("mean", "%.1f", cb.Mean(), cm.Mean())
	t.AddDelta("p90", "%.1f", cb.Quantile(0.9), cm.Quantile(0.9))
	sb.WriteString(t.Render())
	sb.WriteByte('\n')
}
