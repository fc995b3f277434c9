package world

import (
	"context"
	"testing"

	"anycastctx/internal/stage"
)

func TestBuildTestScale(t *testing.T) {
	w, err := Build(context.Background(), TestScale(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Regions()) != 508 {
		t.Errorf("regions = %d", len(w.Regions()))
	}
	if w.Graph() == nil || w.Pop() == nil || w.Zone() == nil || w.CDN() == nil ||
		w.Atlas() == nil || w.Campaign() == nil || w.APNIC() == nil || w.CDNCounts() == nil {
		t.Fatal("incomplete world")
	}
	if len(w.Letters()) != 10 {
		t.Errorf("letters = %d", len(w.Letters()))
	}
	if len(w.Rates()) != len(w.Pop().Recursives) {
		t.Error("rates not parallel to recursives")
	}
	if len(w.Locations()) == 0 {
		t.Error("no user locations")
	}
	if w.Model() == nil {
		t.Error("no latency model")
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(context.Background(), Config{Seed: 1, Scale: -1}); err == nil {
		t.Error("negative scale accepted")
	}
	if _, err := Build(context.Background(), Config{Seed: 1, Scale: 1.5}); err == nil {
		t.Error("scale > 1 accepted")
	}
	if _, err := Build(context.Background(), Config{Seed: 1, Year: 2019}); err == nil {
		t.Error("unknown year accepted")
	}
}

func TestBuild2020(t *testing.T) {
	cfg := TestScale(3)
	cfg.Year = DITL2020
	w, err := Build(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Letters()) != 7 {
		t.Errorf("2020 letters = %d", len(w.Letters()))
	}
}

func TestJoinCachedAndNonEmpty(t *testing.T) {
	ctx := context.Background()
	w, err := Build(ctx, TestScale(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Demand(ctx, stage.Join); err != nil {
		t.Fatal(err)
	}
	j1 := w.JoinCtx(ctx)
	if err := w.Demand(ctx, stage.Join); err != nil {
		t.Fatal(err)
	}
	if w.JoinCtx(ctx) != j1 {
		t.Error("join not cached")
	}
	if len(j1.Rows) == 0 {
		t.Error("empty join")
	}
}

func TestScaleInt(t *testing.T) {
	if got := scaleInt(100, 0.5, 10); got != 50 {
		t.Errorf("scaleInt = %d", got)
	}
	if got := scaleInt(100, 0.01, 10); got != 10 {
		t.Errorf("floor not applied: %d", got)
	}
	if got := scaleInt(100, 1, 10); got != 100 {
		t.Errorf("full scale = %d", got)
	}
}

func TestDeterministicBuild(t *testing.T) {
	w1, err := Build(context.Background(), TestScale(9))
	if err != nil {
		t.Fatal(err)
	}
	w2, err := Build(context.Background(), TestScale(9))
	if err != nil {
		t.Fatal(err)
	}
	if len(w1.Pop().Recursives) != len(w2.Pop().Recursives) {
		t.Fatal("population differs")
	}
	for i := range w1.Pop().Recursives {
		if w1.Pop().Recursives[i].Key != w2.Pop().Recursives[i].Key {
			t.Fatal("recursive keys differ")
		}
	}
	for li := range w1.Campaign().Letters {
		for ri := 0; ri < w1.Campaign().NumRecursives(); ri++ {
			a, b := w1.Campaign().At(li, ri), w2.Campaign().At(li, ri)
			if a.Reachable != b.Reachable || a.BaseRTTMs != b.BaseRTTMs || a.LetterWeight != b.LetterWeight {
				t.Fatalf("assignment differs at letter %d rec %d", li, ri)
			}
		}
	}
}

func TestScaleFromEnv(t *testing.T) {
	cases := []struct {
		env  string
		want float64
	}{
		{"", 0.3},       // unset: default
		{"0.05", 0.05},  // valid override
		{"1", 1},        // boundary included
		{"0", 0.3},      // out of range: ignored with a warning
		{"1.5", 0.3},    // out of range
		{"-2", 0.3},     // out of range
		{"banana", 0.3}, // unparseable
	}
	for _, tc := range cases {
		t.Setenv("ANYCASTCTX_TEST_SCALE", tc.env)
		if got := ScaleFromEnv(0.3); got != tc.want {
			t.Errorf("ScaleFromEnv(0.3) with env %q = %v, want %v", tc.env, got, tc.want)
		}
	}
	t.Setenv("ANYCASTCTX_TEST_SCALE", "0.07")
	if cfg := TestScale(5); cfg.Scale != 0.07 || cfg.Seed != 5 {
		t.Errorf("TestScale(5) = %+v, want scale 0.07 seed 5", cfg)
	}
}
