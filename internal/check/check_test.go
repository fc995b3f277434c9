package check

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"testing"

	"anycastctx/internal/faults"
	"anycastctx/internal/stage"
	"anycastctx/internal/world"
)

// Worlds are expensive; tests share builds per config. Corruption tests
// mutate a shared world but restore it before returning (and prove the
// restore by re-running the checker they fired). Tests in this package
// must not use t.Parallel for that reason.
var (
	worldMu sync.Mutex
	worlds  = map[world.Config]*world.World{}
)

func testWorld(t testing.TB, cfg world.Config) *world.World {
	t.Helper()
	worldMu.Lock()
	defer worldMu.Unlock()
	if w, ok := worlds[cfg]; ok {
		return w
	}
	w, err := world.Build(context.Background(), cfg)
	if err == nil {
		err = w.Demand(context.Background(), stage.Join)
	}
	if err != nil {
		t.Fatalf("world %+v: %v", cfg, err)
	}
	worlds[cfg] = w
	return w
}

// scales is the cross-scale suite the clean run and the metamorphic
// relations share; seed 7 keeps them on the same world family.
var scales = []float64{0.05, 0.12, 0.5}

func scaleWorld(t testing.TB, scale float64) *world.World {
	return testWorld(t, world.Config{Seed: 7, Scale: scale})
}

// TestCheckersCleanAcrossScales is the acceptance gate in test form: a
// freshly built world carries zero violations at every suite scale.
func TestCheckersCleanAcrossScales(t *testing.T) {
	for _, sc := range scales {
		w := scaleWorld(t, sc)
		for _, v := range Run(context.Background(), w) {
			t.Errorf("scale %g: %s: %s", sc, v.Checker, v.Detail)
		}
	}
}

// fingerprint condenses a world into the totals the invariants govern;
// equal worlds must produce equal fingerprints.
type fingerprint struct {
	raw, invalid, ptr, private, v6, retained float64
	recursives, joinRows                     int
	totalBy24, usersServed                   float64
}

func takeFingerprint(w *world.World) fingerprint {
	s := w.Campaign().Preprocess()
	return fingerprint{
		raw: s.RawPerDay, invalid: s.InvalidPerDay, ptr: s.PTRPerDay,
		private: s.PrivatePerDay, v6: s.V6PerDay, retained: s.RetainedPerDay,
		recursives:  w.Campaign().NumRecursives(),
		joinRows:    len(w.JoinCtx(context.Background()).Rows),
		totalBy24:   w.CDNCounts().TotalBy24(),
		usersServed: w.Pop().UsersServed(),
	}
}

// TestScaleMonotonicityAndFunnelStability is the scale metamorphic
// relation: growing the world grows its structural counts strictly, while
// the funnel's shape — each bucket's fraction of raw — is a property of
// the model, not of world size, so fractions stay put (within a 0.05
// absolute band; observed drift across this family is under 0.021).
func TestScaleMonotonicityAndFunnelStability(t *testing.T) {
	fps := make([]fingerprint, len(scales))
	for i, sc := range scales {
		fps[i] = takeFingerprint(scaleWorld(t, sc))
	}
	for i := 1; i < len(fps); i++ {
		if fps[i].recursives <= fps[i-1].recursives {
			t.Errorf("recursives not scale-monotone: %d at scale %g, %d at %g",
				fps[i-1].recursives, scales[i-1], fps[i].recursives, scales[i])
		}
		if fps[i].joinRows <= fps[i-1].joinRows {
			t.Errorf("join rows not scale-monotone: %d at scale %g, %d at %g",
				fps[i-1].joinRows, scales[i-1], fps[i].joinRows, scales[i])
		}
	}
	frac := func(fp fingerprint) [4]float64 {
		return [4]float64{fp.invalid / fp.raw, fp.ptr / fp.raw,
			(fp.private + fp.v6) / fp.raw, fp.retained / fp.raw}
	}
	names := [4]string{"invalid", "ptr", "private+v6", "retained"}
	for i, fp := range fps {
		fr := frac(fp)
		var sum float64
		for _, f := range fr {
			sum += f
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("scale %g: funnel fractions sum to %v, want 1", scales[i], sum)
		}
		if fr[0] < 0.5 || fr[3] <= 0 || fr[3] > 0.5 {
			t.Errorf("scale %g: funnel shape unrecognizable: invalid %.3f, retained %.3f",
				scales[i], fr[0], fr[3])
		}
		if i == 0 {
			continue
		}
		prev := frac(fps[i-1])
		for k := range fr {
			if d := math.Abs(fr[k] - prev[k]); d > 0.05 {
				t.Errorf("%s fraction moved %.3f between scales %g and %g; the funnel shape must not depend on world size",
					names[k], d, scales[i-1], scales[i])
			}
		}
	}
}

// TestSeedPermutationInvariance is the seed metamorphic relation: a
// world is a pure function of its config, so building the same seeds in
// a different order — with other builds interleaved — changes nothing.
// Builds bypass the shared cache; the test exists to catch state leaking
// between builds through package-level variables.
func TestSeedPermutationInvariance(t *testing.T) {
	build := func(seed int64) fingerprint {
		w, err := world.Build(context.Background(), world.Config{Seed: seed, Scale: 0.05})
		if err == nil {
			err = w.Demand(context.Background(), stage.Join)
		}
		if err != nil {
			t.Fatal(err)
		}
		return takeFingerprint(w)
	}
	first := map[int64]fingerprint{11: build(11), 12: build(12)}
	second := map[int64]fingerprint{12: build(12), 11: build(11)}
	for seed, fp := range first {
		if fp != second[seed] {
			t.Errorf("seed %d: fingerprint depends on build order:\n first %+v\nsecond %+v",
				seed, fp, second[seed])
		}
	}
}

// TestZeroFaultRateMatchesNoFaults is the fault metamorphic relation: a
// fault policy with every probability at zero must leave the pipeline
// byte-identical to the zero policy — same fingerprint, same emitted
// capture bytes — regardless of the policy's seed.
func TestZeroFaultRateMatchesNoFaults(t *testing.T) {
	ctx := context.Background()
	clean := testWorld(t, world.Config{Seed: 5, Scale: 0.05})
	zeroed := testWorld(t, world.Config{Seed: 5, Scale: 0.05, Faults: faults.Uniform(123, 0)})
	if a, b := takeFingerprint(clean), takeFingerprint(zeroed); a != b {
		t.Errorf("rate-0 fault policy changed the world:\nno faults %+v\n   rate 0 %+v", a, b)
	}
	li, siteID := probeSite(clean)
	var bufA, bufB bytes.Buffer
	if _, err := clean.Campaign().EmitSiteCaptureCtx(ctx, &bufA, li, siteID, 400, 77); err != nil {
		t.Fatal(err)
	}
	if _, err := zeroed.Campaign().EmitSiteCaptureCtx(ctx, &bufB, li, siteID, 400, 77); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Error("rate-0 fault policy changed emitted capture bytes")
	}
}

// requireFires runs one checker and demands a violation mentioning
// substr — the corrupted-fixture half of the suite: a checker that stays
// silent on the corruption it guards against is a no-op, and the clean
// suite above could never tell.
func requireFires(t *testing.T, c Checker, w *world.World, substr string) {
	t.Helper()
	vs := c.Check(context.Background(), w)
	if len(vs) == 0 {
		t.Fatalf("%s: corruption went undetected (wanted violation containing %q)", c.Name(), substr)
	}
	for _, v := range vs {
		if v.Checker != c.Name() {
			t.Errorf("%s: violation attributed to %q", c.Name(), v.Checker)
		}
		if strings.Contains(v.Detail, substr) {
			return
		}
	}
	t.Fatalf("%s: no violation mentions %q; got %v", c.Name(), substr, vs)
}

// requireClean proves a corruption test restored the world it mutated.
func requireClean(t *testing.T, c Checker, w *world.World) {
	t.Helper()
	for _, v := range c.Check(context.Background(), w) {
		t.Errorf("world left corrupted after restore: %s: %s", v.Checker, v.Detail)
	}
}

func TestFunnelCheckerFiresOnNegativeRate(t *testing.T) {
	w := scaleWorld(t, 0.05)
	old := w.Rates()[0].RootValidPerDay
	w.Rates()[0].RootValidPerDay = -1
	defer func() { w.Rates()[0].RootValidPerDay = old }()
	requireFires(t, FunnelConservation{}, w, "not finite non-negative")
	w.Rates()[0].RootValidPerDay = old
	requireClean(t, FunnelConservation{}, w)
}

func TestCatchmentCheckerFiresOnMissingSites(t *testing.T) {
	w := scaleWorld(t, 0.05)
	// Amputate a letter's site list: every stored assignment beyond site 0
	// now points out of range, and the partition report must say so.
	old := w.Campaign().Letters[0].Sites
	w.Campaign().Letters[0].Sites = old[:1]
	defer func() { w.Campaign().Letters[0].Sites = old }()
	requireFires(t, CatchmentPartition{}, w, "out of range")
	w.Campaign().Letters[0].Sites = old
	requireClean(t, CatchmentPartition{}, w)
}

func TestStoreCheckerFiresOnConfigDrift(t *testing.T) {
	w := scaleWorld(t, 0.05)
	// Shrink the declared secondary-share cap after the fact: stored
	// secondary fractions are now out of bounds against the config they
	// were built under, which the store self-check reports.
	old := w.Campaign().Cfg.SecondaryShareMax
	w.Campaign().Cfg.SecondaryShareMax = 0
	defer func() { w.Campaign().Cfg.SecondaryShareMax = old }()
	requireFires(t, CampaignStore{}, w, "outside [0, 0]")
	w.Campaign().Cfg.SecondaryShareMax = old
	requireClean(t, CampaignStore{}, w)
}

func TestJoinCheckerFiresOnRewrittenCount(t *testing.T) {
	w := scaleWorld(t, 0.05)
	j := w.JoinCtx(context.Background()) // force the cache, then change the data under it
	if len(j.Rows) == 0 {
		t.Fatal("empty join")
	}
	key := j.Rows[0].Key
	old := w.CDNCounts().By24[key]
	w.CDNCounts().By24[key] = old + 1
	defer func() { w.CDNCounts().By24[key] = old }()
	requireFires(t, CDNJoinConservation{}, w, "joined users")
	w.CDNCounts().By24[key] = old
	requireClean(t, CDNJoinConservation{}, w)
}

func TestUserViewCheckerFiresOnInflatedCount(t *testing.T) {
	w := scaleWorld(t, 0.05)
	j := w.JoinCtx(context.Background())
	if len(j.Rows) == 0 {
		t.Fatal("empty join")
	}
	key := j.Rows[0].Key
	old := w.CDNCounts().By24[key]
	w.CDNCounts().By24[key] = old + 1
	defer func() { w.CDNCounts().By24[key] = old }()
	requireFires(t, UserViewConservation{}, w, "sum of its per-IP counts")
	w.CDNCounts().By24[key] = old
	requireClean(t, UserViewConservation{}, w)
}

func TestCaptureCheckerFiresOnLostRecords(t *testing.T) {
	w := scaleWorld(t, 0.05)
	// Mangle the stream down to its file header: every written record
	// vanishes without a reader drop, breaking written = read + dropped.
	c := &CaptureAccounting{Mangle: func(b []byte) []byte { return b[:24] }}
	requireFires(t, c, w, "records written but")
	requireClean(t, &CaptureAccounting{}, w)
}

func TestObsCheckerFiresOnCounterInterference(t *testing.T) {
	w := scaleWorld(t, 0.05)
	// Move the capture counters behind the checker's back: an unaccounted
	// emission between its snapshots breaks the delta reconciliation.
	li, siteID := probeSite(w)
	c := &ObsAccounting{Perturb: func() {
		if _, err := w.Campaign().EmitSiteCaptureCtx(context.Background(),
			io.Discard, li, siteID, 50, 99); err != nil {
			t.Fatal(err)
		}
	}}
	requireFires(t, c, w, "counter ditl.pcap_packets advanced by")
	requireClean(t, &ObsAccounting{}, w)
}

// TestReporterCapsViolations pins the flood guard: a systemically corrupt
// world reports the first maxDetails details plus one overflow line, not
// one line per cell.
func TestReporterCapsViolations(t *testing.T) {
	r := &reporter{name: "flood"}
	for i := 0; i < maxDetails+4; i++ {
		r.addf("violation %d", i)
	}
	vs := r.violations()
	if len(vs) != maxDetails+1 {
		t.Fatalf("got %d violations, want %d capped + 1 overflow line", len(vs), maxDetails)
	}
	if got := vs[maxDetails].Detail; !strings.Contains(got, "4 more violations suppressed") {
		t.Errorf("overflow line = %q", got)
	}
}

func TestRender(t *testing.T) {
	if got, want := Render(nil, len(All())), fmt.Sprintf("ok (%d checkers, 0 violations)", len(All())); !strings.Contains(got, want) {
		t.Errorf("clean render = %q", got)
	}
	vs := []Violation{{Checker: "funnel-conservation", Detail: "raw 1 != 2"}}
	got := Render(vs, len(All()))
	for _, want := range []string{"INVARIANT VIOLATIONS (1)", "funnel-conservation", "raw 1 != 2"} {
		if !strings.Contains(got, want) {
			t.Errorf("render missing %q:\n%s", want, got)
		}
	}
}
