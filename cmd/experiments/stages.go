package main

import (
	"fmt"
	"os"
	"sort"
	"strings"

	"anycastctx"
	"anycastctx/internal/stage"
)

// neededStages is the union of the selected experiments' declared Needs,
// the stages to materialize before the run starts. Scenario evaluation
// and the invariant checkers demand what they read themselves.
//
// Deliberately NOT closed over dependencies: the demand engine recurses
// itself, and when a persisted stage loads from the store it demands only
// its load-deps — pre-demanding the full closure would force stages (like
// usercounts behind a join hit) that a warm run never needs.
func neededStages(run string) []stage.ID {
	var ids []stage.ID
	seen := make(map[stage.ID]bool)
	for _, e := range anycastctx.Experiments() {
		if run != "all" && e.ID != run {
			continue
		}
		for _, id := range e.Needs {
			if !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
	}
	return ids
}

// printStages renders the stage DAG for this configuration: each stage's
// content hash, dependencies, and — when -cache-dir is set — whether its
// artifact is already in the store.
func printStages(cfg anycastctx.Config) error {
	w, err := anycastctx.NewWorld(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %-12s %-9s %-12s %s\n", "STAGE", "KEY", "PERSISTED", "STORE", "DEPS")
	for _, id := range stage.All() {
		info, _ := stage.Get(id)
		persisted := "-"
		if info.Persisted {
			persisted = "yes"
		}
		store := "-"
		if info.Persisted && w.Store() != nil {
			if n, ok := w.Store().Stat(string(id), w.Key(id)); ok {
				store = fmt.Sprintf("%dB", n)
			} else {
				store = "miss"
			}
		}
		deps := make([]string, len(info.Deps))
		for i, d := range info.Deps {
			deps[i] = string(d)
		}
		fmt.Printf("%-12s %-12s %-9s %-12s %s\n",
			id, w.Key(id)[:12], persisted, store, strings.Join(deps, ","))
	}
	if w.Store() != nil {
		fmt.Printf("\nstore: %s\n", w.Store().Dir())
	}
	return nil
}

// printExplain shows which stages one experiment demands: its declared
// Needs and their transitive closure, with per-stage key and store state.
func printExplain(cfg anycastctx.Config, id string) error {
	var exp *anycastctx.Experiment
	for _, e := range anycastctx.Experiments() {
		if e.ID == id {
			e := e
			exp = &e
			break
		}
	}
	if exp == nil {
		known := make([]string, 0)
		for _, e := range anycastctx.Experiments() {
			known = append(known, e.ID)
		}
		sort.Strings(known)
		return fmt.Errorf("unknown experiment %q (known: %v)", id, known)
	}
	w, err := anycastctx.NewWorld(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %s\n", exp.ID, exp.Title)
	if len(exp.Needs) == 0 {
		fmt.Println("needs: none (no world stages, or builds its own world)")
		return nil
	}
	needs := make([]string, len(exp.Needs))
	for i, n := range exp.Needs {
		needs[i] = string(n)
	}
	fmt.Printf("needs: %s\n", strings.Join(needs, ", "))
	fmt.Println("materializes (closure, in build order):")
	declared := make(map[stage.ID]bool, len(exp.Needs))
	for _, n := range exp.Needs {
		declared[n] = true
	}
	for _, sid := range stage.Closure(exp.Needs...) {
		info, _ := stage.Get(sid)
		var notes []string
		if declared[sid] {
			notes = append(notes, "declared")
		}
		if info.Persisted {
			if w.Store() != nil {
				if n, ok := w.Store().Stat(string(sid), w.Key(sid)); ok {
					notes = append(notes, fmt.Sprintf("in store, %dB", n))
				} else {
					notes = append(notes, "persisted, not in store")
				}
			} else {
				notes = append(notes, "persisted")
			}
		}
		fmt.Printf("  %-12s %-12s %s\n", sid, w.Key(sid)[:12], strings.Join(notes, "; "))
	}
	return nil
}

// printCacheSummary writes one stderr line per persisted stage that
// materialized this run, so cache behavior is visible (and greppable by
// CI) without touching stdout.
func printCacheSummary(w *anycastctx.World, cacheDir string) {
	if cacheDir == "" {
		return
	}
	for _, st := range w.StageStatuses() {
		if !st.Persisted || st.Outcome == "pending" {
			continue
		}
		switch st.Outcome {
		case "loaded":
			fmt.Fprintf(os.Stderr, "cache: %s %s loaded %dB in %.1fms\n",
				st.ID, st.Key[:12], st.Bytes, float64(st.LoadNs)/1e6)
		default:
			note := ""
			if st.Corrupt {
				note = " (stored artifact invalid, recomputed)"
			}
			fmt.Fprintf(os.Stderr, "cache: %s %s computed in %.1fms, saved %dB%s\n",
				st.ID, st.Key[:12], float64(st.ComputeNs)/1e6, st.Bytes, note)
		}
	}
}
