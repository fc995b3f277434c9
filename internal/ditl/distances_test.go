package ditl

import (
	"context"
	"math"
	"sync"
	"testing"

	"anycastctx/internal/anycastnet"
	"anycastctx/internal/geo"
)

// referenceDistances prices recursive ri's distances on letter li of c
// as Eq. 1 and Eq. 2 priced them per row, NaN where the letter has no
// route from the recursive's AS.
func referenceDistances(c *Campaign, li, ri int) (favoriteKm, closestKm float64) {
	a := c.At(li, ri)
	if !a.Reachable {
		return math.NaN(), math.NaN()
	}
	letter := c.Letters[li]
	q := geo.Prepare(c.Pop.Recursives[ri].Loc)
	_, closestKm = letter.ClosestGlobalSiteTo(q)
	return q.DistanceKm(letter.SitePoint(a.Route.SiteID)), closestKm
}

// requireDistances fails unless every cell of c reads the reference
// distances, bit for bit.
func requireDistances(t *testing.T, name string, c *Campaign) {
	t.Helper()
	for li := range c.Letters {
		for ri := 0; ri < c.NumRecursives(); ri++ {
			fav, closest := c.SiteDistances(li, ri)
			wantFav, wantClosest := referenceDistances(c, li, ri)
			if math.Float64bits(fav) != math.Float64bits(wantFav) ||
				math.Float64bits(closest) != math.Float64bits(wantClosest) {
				t.Fatalf("%s: letter %d recursive %d reads (%v, %v) km, reference (%v, %v)",
					name, li, ri, fav, closest, wantFav, wantClosest)
			}
		}
	}
}

// sameColumns reports whether two tables hold letter li's distance
// columns in the same memory.
func sameColumns(a, b *RouteTable, li int) bool {
	af, ac := a.SiteDistanceColumns(li)
	bf, bc := b.SiteDistanceColumns(li)
	return &af[0] == &bf[0] && &ac[0] == &bc[0]
}

// TestSiteDistanceColumns: goroutines racing to first-read a fresh
// table's letters all read the reference distances; a rebase with one
// mutated letter shares every copied letter's column pair with its base
// and fills its own for the mutated letter, with the mutated letter's
// distances, while a full rebuild shares none; and a table decoded from
// the artifact fills columns equal to the built table's.
func TestSiteDistanceColumns(t *testing.T) {
	f := buildFixture(t)
	ctx := context.Background()
	c, err := Build(ctx, f.g, f.letters, f.pop, f.camp.Zone, f.rates, f.camp.Model, Config{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	n, nl := c.NumRecursives(), len(c.Letters)
	const readers = 6
	reads := make([][]float64, readers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range reads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]float64, 2*nl*n)
			<-start
			for k := 0; k < nl; k++ {
				li := (g + k) % nl
				for ri := 0; ri < n; ri++ {
					out[2*(li*n+ri)], out[2*(li*n+ri)+1] = c.SiteDistances(li, ri)
				}
			}
			reads[g] = out
		}()
	}
	close(start)
	wg.Wait()
	for g, out := range reads {
		for li := 0; li < nl; li++ {
			for ri := 0; ri < n; ri++ {
				wantFav, wantClosest := referenceDistances(c, li, ri)
				k := 2 * (li*n + ri)
				if math.Float64bits(out[k]) != math.Float64bits(wantFav) ||
					math.Float64bits(out[k+1]) != math.Float64bits(wantClosest) {
					t.Fatalf("reader %d: letter %d recursive %d reads (%v, %v) km, reference (%v, %v)",
						g, li, ri, out[k], out[k+1], wantFav, wantClosest)
				}
			}
		}
	}

	// Withdraw the favourite site of letter C's first reachable recursive.
	const li = 1
	ri := 0
	for !f.camp.At(li, ri).Reachable {
		ri++
	}
	letters := append([]*anycastnet.Deployment(nil), f.letters...)
	letters[li] = withdrawSite(t, f, li, f.camp.At(li, ri).Route.SiteID)
	for _, reprice := range []bool{false, true} {
		reb, err := f.camp.Rebase(ctx, letters, nil, f.camp.Cfg.TauMs, reprice, 5)
		if err != nil {
			t.Fatalf("reprice=%v: rebase: %v", reprice, err)
		}
		for l := range letters {
			if shared, want := sameColumns(f.camp.table, reb.table, l), !reprice && l != li; shared != want {
				t.Errorf("reprice=%v: letter %d shares the base's columns: %v, want %v", reprice, l, shared, want)
			}
		}
		requireDistances(t, "rebase", reb)
		moved := 0
		for r := 0; r < n; r++ {
			a, _ := f.camp.SiteDistances(li, r)
			b, _ := reb.SiteDistances(li, r)
			if math.Float64bits(a) != math.Float64bits(b) {
				moved++
			}
		}
		if moved == 0 {
			t.Errorf("reprice=%v: no favourite-site distance moved with the withdrawal; the test shows nothing", reprice)
		}
	}
	requireDistances(t, "base", f.camp)

	table, err := DecodeRouteTable(f.camp.table.EncodeArtifact(), f.letters, f.pop)
	if err != nil {
		t.Fatal(err)
	}
	for l := range f.letters {
		if sameColumns(f.camp.table, table, l) {
			t.Fatalf("decoded table shares letter %d's columns with the built one", l)
		}
		wf, wc := f.camp.table.SiteDistanceColumns(l)
		gf, gc := table.SiteDistanceColumns(l)
		for r := range wf {
			if math.Float64bits(gf[r]) != math.Float64bits(wf[r]) || math.Float64bits(gc[r]) != math.Float64bits(wc[r]) {
				t.Fatalf("decoded table: letter %d recursive %d reads (%v, %v) km, built (%v, %v)",
					l, r, gf[r], gc[r], wf[r], wc[r])
			}
		}
	}
}
