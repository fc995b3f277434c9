package world

import (
	"bytes"
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"anycastctx/internal/stage"
)

// persistedStages returns the stages the artifact store holds, in
// topological order.
func persistedStages() []stage.ID {
	var out []stage.ID
	for _, id := range stage.All() {
		if info, _ := stage.Get(id); info.Persisted {
			out = append(out, id)
		}
	}
	return out
}

// demandAll materializes every stage, persisted or not.
func demandAll(t *testing.T, w *World) {
	t.Helper()
	if err := w.Demand(context.Background(), stage.All()...); err != nil {
		t.Fatal(err)
	}
}

// stageBytes re-encodes each persisted stage of a fully materialized
// world. Comparing these across worlds is the codec oracle: a warm world
// decoded its stages from artifacts, so equal re-encodings prove
// encode → decode → encode is byte-identical.
func stageBytes(t *testing.T, w *World) map[stage.ID][]byte {
	t.Helper()
	out := make(map[stage.ID][]byte)
	for _, id := range persistedStages() {
		blob, err := w.encodeStage(id)
		if err != nil {
			t.Fatal(err)
		}
		out[id] = blob
	}
	return out
}

// TestColdWarmByteIdentity is the hard contract of the artifact store: a
// warm-cache build must be byte-identical to the cold build it replays,
// at multiple scales and GOMAXPROCS settings.
func TestColdWarmByteIdentity(t *testing.T) {
	scales := []float64{0.12, 0.5}
	if testing.Short() {
		scales = scales[:1]
	}
	for _, sc := range scales {
		dir := t.TempDir()
		cfg := Config{Seed: 1, Scale: sc, CacheDir: dir}
		cold, err := Build(context.Background(), cfg)
		if err != nil {
			t.Fatalf("scale %g: cold build: %v", sc, err)
		}
		demandAll(t, cold)
		coldBytes := stageBytes(t, cold)
		for _, procs := range []int{0, 1} {
			if procs > 0 {
				old := runtime.GOMAXPROCS(procs)
				defer runtime.GOMAXPROCS(old)
			}
			warm, err := Build(context.Background(), cfg)
			if err != nil {
				t.Fatalf("scale %g procs %d: warm build: %v", sc, procs, err)
			}
			demandAll(t, warm)
			for _, st := range warm.StageStatuses() {
				if st.Persisted && st.Outcome != "loaded" {
					t.Errorf("scale %g procs %d: stage %s outcome %q, want loaded", sc, procs, st.ID, st.Outcome)
				}
				if st.Corrupt {
					t.Errorf("scale %g procs %d: stage %s flagged corrupt on a clean store", sc, procs, st.ID)
				}
			}
			warmBytes := stageBytes(t, warm)
			for id, want := range coldBytes {
				if got := warmBytes[id]; !bytes.Equal(got, want) {
					t.Errorf("scale %g procs %d: stage %s re-encoding differs from cold build (%d vs %d bytes)",
						sc, procs, id, len(got), len(want))
				}
			}
		}
	}
}

// TestKeysIgnoreCacheDir: pointing two runs at different artifact
// directories must not change the stage keys, or stores could never be
// shared or relocated.
func TestKeysIgnoreCacheDir(t *testing.T) {
	a, err := New(Config{Seed: 1, Scale: 0.05, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Config{Seed: 1, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Seed: 2, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range stage.All() {
		if a.Key(id) != b.Key(id) {
			t.Errorf("stage %s: key differs with CacheDir set", id)
		}
		if a.Key(id) == c.Key(id) {
			t.Errorf("stage %s: key identical across different seeds", id)
		}
	}
}

// TestCorruptArtifactRecovery: damaged artifacts must never poison a
// build — every corruption mode falls back to recompute, flags the stage,
// and still yields bytes identical to the cold build.
func TestCorruptArtifactRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Seed: 1, Scale: 0.05, CacheDir: dir}
	cold, err := Build(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	demandAll(t, cold)
	coldBytes := stageBytes(t, cold)

	corrupt := map[stage.ID]func(path string) error{
		// Truncation: the payload length in the header outruns the file.
		stage.Rates: func(path string) error {
			fi, err := os.Stat(path)
			if err != nil {
				return err
			}
			return os.Truncate(path, fi.Size()/2)
		},
		// Bit flip: the stored checksum no longer matches the payload.
		stage.Campaign: func(path string) error {
			blob, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			blob[len(blob)-1] ^= 0x40
			return os.WriteFile(path, blob, 0o644)
		},
	}
	for id, damage := range corrupt {
		if err := damage(cold.store.Path(string(id), cold.Key(id))); err != nil {
			t.Fatalf("corrupting %s: %v", id, err)
		}
	}
	// Valid header, nonsense payload: the store's checksum passes but the
	// stage decoder must reject the shape and recompute.
	if err := cold.store.Save(string(stage.Join), cold.Key(stage.Join), []byte("not a join artifact")); err != nil {
		t.Fatal(err)
	}

	warm, err := Build(context.Background(), cfg)
	if err != nil {
		t.Fatalf("warm build over corrupt store: %v", err)
	}
	demandAll(t, warm)
	wantCorrupt := map[stage.ID]bool{stage.Rates: true, stage.Campaign: true, stage.Join: true}
	for _, st := range warm.StageStatuses() {
		if !st.Persisted {
			continue
		}
		if wantCorrupt[st.ID] {
			if !st.Corrupt {
				t.Errorf("stage %s: corruption not flagged", st.ID)
			}
			if st.Outcome != "computed" {
				t.Errorf("stage %s: outcome %q after corruption, want computed", st.ID, st.Outcome)
			}
		} else if st.Corrupt {
			t.Errorf("stage %s: flagged corrupt but was untouched", st.ID)
		}
	}
	warmBytes := stageBytes(t, warm)
	for id, want := range coldBytes {
		if got := warmBytes[id]; !bytes.Equal(got, want) {
			t.Errorf("stage %s: recovered bytes differ from cold build", id)
		}
	}
	// The recompute path re-saves: a third build must load everything.
	again, err := Build(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	demandAll(t, again)
	for _, st := range again.StageStatuses() {
		if st.Persisted && st.Outcome != "loaded" {
			t.Errorf("stage %s: outcome %q after repair, want loaded", st.ID, st.Outcome)
		}
	}

	// A route table cut short under a valid header: the routes stage
	// recomputes, and the campaign, whose artifact is intact, loads
	// against the recomputed table.
	routes := coldBytes[stage.Routes]
	if err := cold.store.Save(string(stage.Routes), cold.Key(stage.Routes), routes[:len(routes)-1]); err != nil {
		t.Fatal(err)
	}
	fixed, err := Build(context.Background(), cfg)
	if err != nil {
		t.Fatalf("warm build over a damaged route table: %v", err)
	}
	demandAll(t, fixed)
	for _, st := range fixed.StageStatuses() {
		if !st.Persisted {
			continue
		}
		want := "loaded"
		if st.ID == stage.Routes {
			want = "computed"
			if !st.Corrupt {
				t.Errorf("stage %s: damaged table not flagged", st.ID)
			}
		}
		if st.Outcome != want {
			t.Errorf("stage %s: outcome %q after a damaged route table, want %s", st.ID, st.Outcome, want)
		}
	}
	for id, got := range stageBytes(t, fixed) {
		if !bytes.Equal(got, coldBytes[id]) {
			t.Errorf("stage %s: bytes after a damaged route table differ from cold build", id)
		}
	}
}

// TestOverlayIsolationStoreBacked: a scenario overlay of a store-backed
// world must never write through to the base's artifacts — the store
// holds only base-config outputs, keyed by the base config.
func TestOverlayIsolationStoreBacked(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Seed: 1, Scale: 0.05, CacheDir: dir}
	base, err := Build(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := base.Demand(context.Background(), stage.Join); err != nil {
		t.Fatal(err)
	}
	snapshot := func() map[string][]byte {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string][]byte, len(ents))
		for _, e := range ents {
			blob, err := os.ReadFile(dir + "/" + e.Name())
			if err != nil {
				t.Fatal(err)
			}
			out[e.Name()] = blob
		}
		return out
	}
	before := snapshot()

	baseRates := base.Rates()
	rates2 := append(baseRates[:0:0], baseRates...)
	ov, err := base.Overlay(context.Background(), base.Graph(), base.Letters(), base.CDN(), rates2, base.Campaign(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ov.store != nil {
		t.Fatal("overlay inherited the base's artifact store")
	}
	if &base.Rates()[0] == &ov.Rates()[0] {
		t.Error("overlay reads the base's rates instead of its replacement")
	}
	// Handed no join, the overlay computes its own, which must not land
	// in the store: the base's join artifact would be silently replaced
	// by overlay-shaped data.
	if ov.JoinCtx(context.Background()) == base.JoinCtx(context.Background()) {
		t.Error("overlay join aliases the base join")
	}

	after := snapshot()
	if len(before) != len(after) {
		t.Fatalf("overlay changed the store: %d files before, %d after", len(before), len(after))
	}
	for name, blob := range before {
		if !bytes.Equal(blob, after[name]) {
			t.Errorf("overlay rewrote artifact %s", name)
		}
	}
}

// TestOverlayReturnsBaseError: a base world whose artifact store vanished
// after New cannot persist its stages, and Overlay, which forces the
// classic stages live on the base first, returns that error.
func TestOverlayReturnsBaseError(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	base, err := New(Config{Seed: 1, Scale: 0.05, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	_, err = base.Overlay(context.Background(), base.Graph(), base.Letters(), base.CDN(), nil, nil, nil)
	if !errors.Is(err, fs.ErrNotExist) || !strings.Contains(err.Error(), "persisting rates") {
		t.Fatalf("Overlay error = %v, want the base's error persisting rates to the removed store", err)
	}
}

// TestScaleWarnPerDistinctValue is the regression test for the warn-once
// bug: a package-level sync.Once used to swallow the warning for every
// bad ANYCASTCTX_TEST_SCALE value after the first. Each distinct bad
// value must warn exactly once; repeats must stay silent.
func TestScaleWarnPerDistinctValue(t *testing.T) {
	var buf bytes.Buffer
	old := scaleWarnTo
	scaleWarnTo = &buf
	scaleWarn.mu.Lock()
	oldSeen := scaleWarn.seen
	scaleWarn.seen = make(map[string]bool)
	scaleWarn.mu.Unlock()
	defer func() {
		scaleWarnTo = old
		scaleWarn.mu.Lock()
		scaleWarn.seen = oldSeen
		scaleWarn.mu.Unlock()
	}()

	warns := func() int { return bytes.Count(buf.Bytes(), []byte("ANYCASTCTX_TEST_SCALE")) }
	t.Setenv("ANYCASTCTX_TEST_SCALE", "7")
	ScaleFromEnv(0.3)
	if got := warns(); got != 1 {
		t.Fatalf("first bad value: %d warnings, want 1", got)
	}
	ScaleFromEnv(0.3)
	ScaleFromEnv(0.3)
	if got := warns(); got != 1 {
		t.Fatalf("repeated bad value re-warned: %d warnings, want 1", got)
	}
	t.Setenv("ANYCASTCTX_TEST_SCALE", "banana")
	ScaleFromEnv(0.3)
	if got := warns(); got != 2 {
		t.Fatalf("second distinct bad value: %d warnings, want 2", got)
	}
	t.Setenv("ANYCASTCTX_TEST_SCALE", "7")
	ScaleFromEnv(0.3)
	if got := warns(); got != 2 {
		t.Fatalf("previously seen value re-warned: %d warnings, want 2", got)
	}
	t.Setenv("ANYCASTCTX_TEST_SCALE", "0.25")
	if got := ScaleFromEnv(0.3); got != 0.25 {
		t.Fatalf("valid value after warnings = %v, want 0.25", got)
	}
	if got := warns(); got != 2 {
		t.Fatalf("valid value warned: %d warnings, want 2", got)
	}
}
