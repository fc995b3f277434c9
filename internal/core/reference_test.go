package core_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"anycastctx/internal/anycastnet"
	"anycastctx/internal/core"
	"anycastctx/internal/ditl"
	"anycastctx/internal/geo"
	"anycastctx/internal/scenario"
	"anycastctx/internal/stage"
	"anycastctx/internal/stats"
	"anycastctx/internal/world"
)

// The reference bodies below evaluate Eq. 1 and Eq. 2 without the route
// table's distance columns: each row prepares its recursive and prices
// the favourite site, any alternate and the closest global site itself.

func refGeoInflationMs(q geo.Point, a *ditl.Assignment, letter *anycastnet.Deployment) float64 {
	var mean float64
	for _, s := range a.Sites() {
		mean += s.Frac * q.DistanceKm(letter.SitePoint(s.SiteID))
	}
	_, minD := letter.ClosestGlobalSiteTo(q)
	return geo.GeoRTTMs(mean - minD)
}

func refLatencyInflationMs(q geo.Point, a *ditl.Assignment, letter *anycastnet.Deployment) float64 {
	var mean float64
	for i, s := range a.Sites() {
		lat := a.TCPMedianRTTMs
		if i > 0 {
			lat = a.BaseRTTMs
		}
		mean += s.Frac * lat
	}
	_, minD := letter.ClosestGlobalSiteTo(q)
	return mean - geo.RTTLowerBoundMs(minD)
}

func refGeoInflationLetter(c *ditl.Campaign, li int, j *ditl.Join) []stats.WeightedValue {
	letter := c.Letters[li]
	out := make([]stats.WeightedValue, 0, len(j.Rows))
	for _, row := range j.Rows {
		a := c.At(li, row.RecIdx)
		if !a.Reachable {
			continue
		}
		rec := &c.Pop.Recursives[row.RecIdx]
		gi := refGeoInflationMs(geo.Prepare(rec.Loc), &a, letter)
		if gi < 0 {
			gi = 0
		}
		out = append(out, stats.WeightedValue{Value: gi, Weight: row.Users})
	}
	return out
}

func refGeoInflationAllRoots(c *ditl.Campaign, j *ditl.Join) []stats.WeightedValue {
	out := make([]stats.WeightedValue, 0, len(j.Rows))
	for _, row := range j.Rows {
		q := geo.Prepare(c.Pop.Recursives[row.RecIdx].Loc)
		var mean, wsum float64
		for li := range c.Letters {
			a := c.At(li, row.RecIdx)
			if !a.Reachable || a.LetterWeight <= 0 {
				continue
			}
			gi := refGeoInflationMs(q, &a, c.Letters[li])
			if gi < 0 {
				gi = 0
			}
			mean += a.LetterWeight * gi
			wsum += a.LetterWeight
		}
		if wsum <= 0 {
			continue
		}
		out = append(out, stats.WeightedValue{Value: mean / wsum, Weight: row.Users})
	}
	return out
}

func refLatencyInflationLetter(c *ditl.Campaign, li int, j *ditl.Join) []stats.WeightedValue {
	letter := c.Letters[li]
	out := make([]stats.WeightedValue, 0, len(j.Rows))
	for _, row := range j.Rows {
		a := c.At(li, row.RecIdx)
		if !a.Reachable || math.IsNaN(a.TCPMedianRTTMs) {
			continue
		}
		rec := &c.Pop.Recursives[row.RecIdx]
		v := refLatencyInflationMs(geo.Prepare(rec.Loc), &a, letter)
		if v < 0 {
			v = 0
		}
		out = append(out, stats.WeightedValue{Value: v, Weight: row.Users})
	}
	return out
}

func refLatencyInflationAllRoots(c *ditl.Campaign, j *ditl.Join, usable map[string]bool) []stats.WeightedValue {
	out := make([]stats.WeightedValue, 0, len(j.Rows))
	for _, row := range j.Rows {
		q := geo.Prepare(c.Pop.Recursives[row.RecIdx].Loc)
		var mean, wsum float64
		for li := range c.Letters {
			if usable != nil && !usable[c.LetterNames[li]] {
				continue
			}
			a := c.At(li, row.RecIdx)
			if !a.Reachable || math.IsNaN(a.TCPMedianRTTMs) || a.LetterWeight <= 0 {
				continue
			}
			v := refLatencyInflationMs(q, &a, c.Letters[li])
			if v < 0 {
				v = 0
			}
			mean += a.LetterWeight * v
			wsum += a.LetterWeight
		}
		if wsum <= 0 {
			continue
		}
		out = append(out, stats.WeightedValue{Value: mean / wsum, Weight: row.Users})
	}
	return out
}

// requireSameObs fails unless got equals want observation for
// observation, value and weight bits included.
func requireSameObs(t *testing.T, what string, got, want []stats.WeightedValue) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d observations, reference %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i].Value) != math.Float64bits(want[i].Value) ||
			math.Float64bits(got[i].Weight) != math.Float64bits(want[i].Weight) {
			t.Fatalf("%s: observation %d is %+v, reference %+v", what, i, got[i], want[i])
		}
	}
}

// requireInflationMatchesReference holds the four inflation functions
// to the reference bodies on campaign c and join j, for every letter.
func requireInflationMatchesReference(t *testing.T, c *ditl.Campaign, j *ditl.Join) {
	t.Helper()
	if len(j.Rows) == 0 {
		t.Fatal("empty join: the comparison shows nothing")
	}
	for li, name := range c.LetterNames {
		requireSameObs(t, "Eq. 1 letter "+name, core.GeoInflationLetter(c, li, j), refGeoInflationLetter(c, li, j))
		requireSameObs(t, "Eq. 2 letter "+name, core.LatencyInflationLetter(c, li, j), refLatencyInflationLetter(c, li, j))
	}
	requireSameObs(t, "Eq. 1 all roots", core.GeoInflationAllRoots(c, j), refGeoInflationAllRoots(c, j))
	for _, usable := range []map[string]bool{nil, anycastnet.TCPLatencyLetters2018} {
		requireSameObs(t, fmt.Sprintf("Eq. 2 all roots (usable %v)", usable),
			core.LatencyInflationAllRoots(c, j, usable), refLatencyInflationAllRoots(c, j, usable))
	}
}

// TestInflationMatchesPerRowReference: reading the favourite and closest
// site distances from the route table's columns gives Eq. 1 and Eq. 2
// bit for bit as the per-row reference bodies do: on the world's
// campaign, on a campaign assembled on the same table at another
// temperature (which shares its columns), and on the rebased campaigns
// of scenarios that withdraw, add or swap letters' sites (which share
// every other letter's). At scale 0.05 no joined recursive reaches F's
// withdrawn local site, so a mutated letter's shared columns show in
// add-site-b, withdraw-b-site and swap-b-f there, and in all four at
// scale 0.5.
func TestInflationMatchesPerRowReference(t *testing.T) {
	ctx := context.Background()
	w, err := world.Build(ctx, world.Config{Seed: 1, Scale: world.ScaleFromEnv(0.05)})
	if err == nil {
		err = w.Demand(ctx, stage.Join)
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Run("world", func(t *testing.T) {
		requireInflationMatchesReference(t, w.Campaign(), w.JoinCtx(ctx))
	})
	t.Run("tau5", func(t *testing.T) {
		c, err := ditl.Assemble(ctx, w.Campaign().RouteTable(), w.Letters(), w.Pop(), w.Zone(), w.Rates(), w.Model(),
			ditl.Config{TauMs: 5}, w.Cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		requireInflationMatchesReference(t, c, c.JoinCDNCtx(ctx, w.CDNCounts(), false))
	})
	b := scenario.NewBaseline(w)
	for _, name := range []string{"withdraw-f-site", "add-site-b", "withdraw-b-site", "swap-b-f"} {
		t.Run(name, func(t *testing.T) {
			spec, ok := scenario.Builtin(name)
			if !ok {
				t.Fatalf("no builtin scenario %q", name)
			}
			res, err := scenario.Eval(ctx, b, spec, scenario.Options{})
			if err != nil {
				t.Fatal(err)
			}
			requireInflationMatchesReference(t, res.World.Campaign(), res.World.JoinCtx(ctx))
		})
	}
}
