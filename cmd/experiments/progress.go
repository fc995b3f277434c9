package main

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"anycastctx"
)

// expProgress is one experiment's state as served by /progress.
type expProgress struct {
	ID    string `json:"id"`
	State string `json:"state"` // pending | running | done | failed
	// WallMs and Rows are set once the experiment finishes.
	WallMs float64 `json:"wall_ms,omitempty"`
	Rows   int     `json:"rows,omitempty"`
}

// progressSnapshot is the /progress response body.
type progressSnapshot struct {
	Total     int     `json:"total"`
	Done      int     `json:"done"`
	Running   int     `json:"running"`
	Failed    int     `json:"failed"`
	Rows      int     `json:"rows"`
	ElapsedMs float64 `json:"elapsed_ms"`
	// ETAMs extrapolates the remaining wall time from the mean pace of
	// finished experiments; 0 until the first one completes.
	ETAMs       float64       `json:"eta_ms,omitempty"`
	Experiments []expProgress `json:"experiments"`
}

// progressTracker aggregates ProgressEvents into the /progress resource.
// It only observes the run (parallel RunAllCtx workers call the hook
// concurrently), so serving it can never change experiment output.
type progressTracker struct {
	mu      sync.Mutex
	started time.Time
	order   []string
	states  map[string]*expProgress
}

// newProgressTracker seeds the tracker with every registered experiment in
// pending state, so /progress shows the full plan before anything runs.
func newProgressTracker(ids []string) *progressTracker {
	t := &progressTracker{
		started: time.Now(),
		order:   ids,
		states:  make(map[string]*expProgress, len(ids)),
	}
	for _, id := range ids {
		t.states[id] = &expProgress{ID: id, State: "pending"}
	}
	return t
}

// observe folds one hook event into the tracker.
func (t *progressTracker) observe(ev anycastctx.ProgressEvent) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.states[ev.ID]
	if !ok {
		st = &expProgress{ID: ev.ID}
		t.states[ev.ID] = st
		t.order = append(t.order, ev.ID)
	}
	if !ev.Done {
		st.State = "running"
		return
	}
	st.State = "done"
	if ev.Err != nil {
		st.State = "failed"
	}
	st.WallMs = float64(ev.WallNs) / 1e6
	st.Rows = ev.Rows
}

// snapshot renders the current state.
func (t *progressTracker) snapshot() progressSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	snap := progressSnapshot{
		Total:     len(t.order),
		ElapsedMs: float64(time.Since(t.started).Nanoseconds()) / 1e6,
	}
	var doneWallMs float64
	for _, id := range t.order {
		st := t.states[id]
		snap.Experiments = append(snap.Experiments, *st)
		switch st.State {
		case "running":
			snap.Running++
		case "done", "failed":
			snap.Done++
			snap.Rows += st.Rows
			doneWallMs += st.WallMs
			if st.State == "failed" {
				snap.Failed++
			}
		}
	}
	if snap.Done > 0 && snap.Done < snap.Total {
		snap.ETAMs = doneWallMs / float64(snap.Done) * float64(snap.Total-snap.Done)
	}
	return snap
}

// handler serves the tracker as JSON.
func (t *progressTracker) handler() http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(t.snapshot())
	}
}
