// Package check is the pipeline-wide invariant layer: a registry of
// cheap, composable checkers asserting the conservation and partition
// laws the paper's conclusions rest on — the §2.1 DITL funnel is
// conservative (raw = kept + every filter bucket, each record in exactly
// one), catchments partition the recursive population per letter, the
// compact campaign store agrees with slow oracles, the DITL∩CDN join
// conserves rows, both noisy user views stay inside their declared noise
// bounds of the same ground truth, and the capture read-back funnel
// reconciles with pcapio.ReaderStats.
//
// The checkers exist so scaling and refactoring PRs can't silently break
// the science: `cmd/experiments -check` runs them after the world build
// and again after the experiments, and the metamorphic tests in this
// package re-derive the same laws from seed, scale, and fault-rate
// perturbations.
//
// Checkers must run with the pipeline quiescent (no concurrent world
// mutation or capture emission): some re-derive global obs counter
// deltas around their own probe work.
package check

import (
	"context"
	"fmt"

	"anycastctx/internal/report"
	"anycastctx/internal/stage"
	"anycastctx/internal/world"
)

// Violation is one broken invariant.
type Violation struct {
	// Checker is the name of the checker that found it.
	Checker string
	// Detail says which law broke and how, with the offending values.
	Detail string
}

// Checker is one composable invariant over a built world.
type Checker interface {
	// Name identifies the checker in violations and tables.
	Name() string
	// Check returns every violated invariant it can see (empty = sound).
	// Implementations must be deterministic: equal worlds yield equal
	// violation lists, in a stable order.
	Check(ctx context.Context, w *world.World) []Violation
}

// maxDetails bounds per-checker violation output: a systemically corrupt
// world would otherwise render one line per cell. The reporter keeps the
// first maxDetails details and appends one overflow summary line.
const maxDetails = 16

// reporter accumulates violations for one checker with capping.
type reporter struct {
	name     string
	out      []Violation
	overflow int
}

func (r *reporter) addf(format string, args ...any) {
	if len(r.out) >= maxDetails {
		r.overflow++
		return
	}
	r.out = append(r.out, Violation{Checker: r.name, Detail: fmt.Sprintf(format, args...)})
}

func (r *reporter) violations() []Violation {
	if r.overflow > 0 {
		return append(r.out, Violation{
			Checker: r.name,
			Detail:  fmt.Sprintf("... and %d more violations suppressed", r.overflow),
		})
	}
	return r.out
}

// All returns every registered checker, in presentation order.
func All() []Checker {
	return []Checker{
		FunnelConservation{},
		CatchmentPartition{},
		CampaignStore{},
		CDNJoinConservation{},
		UserViewConservation{},
		&CaptureAccounting{},
		&ObsAccounting{},
		RouteCacheCoherence{},
	}
}

// Run executes the given checkers (all of them when none are passed)
// against w and concatenates their violations in checker order. It first
// demands the stages the checkers read, the classic set and the join; a
// demand error comes back as the only violation, so a caller that reads
// nothing but the violations still sees it.
func Run(ctx context.Context, w *world.World, checkers ...Checker) []Violation {
	if err := w.Demand(ctx, append(world.ClassicStages(), stage.Join)...); err != nil {
		return []Violation{{Checker: "world", Detail: err.Error()}}
	}
	if len(checkers) == 0 {
		checkers = All()
	}
	var out []Violation
	for _, c := range checkers {
		out = append(out, c.Check(ctx, w)...)
	}
	return out
}

// Render formats violations as a table; a clean run renders a one-line
// all-clear naming how many checkers ran.
func Render(vs []Violation, checkers int) string {
	if len(vs) == 0 {
		return fmt.Sprintf("ok (%d checkers, 0 violations)\n", checkers)
	}
	t := report.Table{
		Title:   fmt.Sprintf("INVARIANT VIOLATIONS (%d)", len(vs)),
		Headers: []string{"checker", "violation"},
	}
	for _, v := range vs {
		t.AddRow(v.Checker, v.Detail)
	}
	return t.Render()
}

// near reports a ≈ b within relative tolerance tol (absolute when b is
// tiny). Conservation sums accumulate float error proportional to the
// magnitudes involved, so identities are asserted relatively.
func near(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := b
	if m < 0 {
		m = -m
	}
	if m < 1 {
		m = 1
	}
	return d <= tol*m
}
