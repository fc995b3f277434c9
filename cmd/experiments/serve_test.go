package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"anycastctx"
	"anycastctx/internal/obs"
)

// TestServedRunIsByteIdentical is the -serve determinism guarantee: a run
// being scraped continuously over /metrics and /progress produces exactly
// the same experiment output as an unserved run on an identically-seeded
// world. The handlers only read the race-safe registry, so this must hold
// by construction; the test pins it.
func TestServedRunIsByteIdentical(t *testing.T) {
	cfg := anycastctx.TestScaleConfig(29)
	runOnce := func(scrape bool) map[string]anycastctx.Result {
		t.Helper()
		w, err := anycastctx.BuildWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var stop chan struct{}
		var wg sync.WaitGroup
		if scrape {
			tracker := newProgressTracker([]string{"fig2a", "tab4"})
			anycastctx.SetProgressHook(tracker.observe)
			defer anycastctx.SetProgressHook(nil)
			mux := obs.NewServeMux(obs.Default)
			mux.HandleFunc("/progress", tracker.handler())
			srv := httptest.NewServer(mux)
			defer srv.Close()
			stop = make(chan struct{})
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					for _, path := range []string{"/metrics", "/progress"} {
						resp, err := http.Get(srv.URL + path)
						if err == nil {
							io.Copy(io.Discard, resp.Body)
							resp.Body.Close()
						}
					}
					time.Sleep(time.Millisecond)
				}
			}()
		}
		out := make(map[string]anycastctx.Result, 2)
		for _, id := range []string{"fig2a", "tab4"} {
			res, err := anycastctx.RunExperimentCtx(context.Background(), w, id)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			out[id] = res
		}
		if scrape {
			close(stop)
			wg.Wait()
		}
		return out
	}

	plain := runOnce(false)
	served := runOnce(true)
	for id, p := range plain {
		s := served[id]
		if p.Measured != s.Measured || p.Output != s.Output {
			t.Errorf("%s: output differs between served and unserved runs", id)
		}
	}
}

// TestProgressEndpoint drives the tracker through a run's lifecycle and
// checks the served JSON at each stage.
func TestProgressEndpoint(t *testing.T) {
	tracker := newProgressTracker([]string{"a", "b", "c", "d"})
	srv := httptest.NewServer(tracker.handler())
	defer srv.Close()

	get := func() progressSnapshot {
		t.Helper()
		resp, err := http.Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("content type %q", ct)
		}
		var snap progressSnapshot
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		return snap
	}

	snap := get()
	if snap.Total != 4 || snap.Done != 0 || snap.Running != 0 {
		t.Fatalf("initial snapshot: %+v", snap)
	}
	for _, st := range snap.Experiments {
		if st.State != "pending" {
			t.Fatalf("initial state %q for %s", st.State, st.ID)
		}
	}

	tracker.observe(anycastctx.ProgressEvent{ID: "a"})
	snap = get()
	if snap.Running != 1 || snap.Experiments[0].State != "running" {
		t.Fatalf("after start: %+v", snap)
	}

	tracker.observe(anycastctx.ProgressEvent{ID: "a", Done: true, WallNs: 8e6, Rows: 12})
	tracker.observe(anycastctx.ProgressEvent{ID: "b"})
	tracker.observe(anycastctx.ProgressEvent{ID: "b", Done: true, WallNs: 4e6, Rows: 3,
		Err: io.ErrUnexpectedEOF})
	snap = get()
	if snap.Done != 2 || snap.Failed != 1 || snap.Rows != 15 {
		t.Fatalf("after two done: %+v", snap)
	}
	if snap.Experiments[0].State != "done" || snap.Experiments[1].State != "failed" {
		t.Fatalf("states: %+v", snap.Experiments)
	}
	// ETA = mean pace (6 ms) x 2 remaining.
	if snap.ETAMs < 11 || snap.ETAMs > 13 {
		t.Errorf("ETA %v ms, want ~12", snap.ETAMs)
	}
}

// TestMetricsEndpointServesOpenMetrics checks the mux wiring end to end:
// content type, a known counter, and the EOF terminator.
func TestMetricsEndpointServesOpenMetrics(t *testing.T) {
	srv := httptest.NewServer(obs.NewServeMux(obs.Default))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.OpenMetricsContentType {
		t.Fatalf("content type %q", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(b)
	if !strings.HasSuffix(body, "# EOF\n") {
		t.Errorf("exposition does not end with # EOF")
	}
	if !strings.Contains(body, "world_builds_total") {
		t.Errorf("exposition missing world_builds_total:\n%.400s", body)
	}
}
