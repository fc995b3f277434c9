package anycastctx

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"

	"anycastctx/internal/obs"
)

// TestRunAllParallelMatchesSerial is the determinism regression test for
// the concurrent runner and the route cache: a one-worker RunAllCtx on one
// world and a 4-worker RunAllCtx on a second identically-seeded world —
// with every letter's route cache pre-warmed so cached and freshly
// computed routes both appear — must produce byte-identical results.
func TestRunAllParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a second world")
	}
	serial, err := RunAllCtx(context.Background(), testWorld(t), 1)
	if err != nil {
		t.Fatal(err)
	}

	w2, err := BuildWorld(TestScaleConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	// Warm every letter's route cache up front: parallel experiments must
	// agree with serial ones whether they compute routes or read them back.
	srcs := w2.Graph().Eyeballs()
	for _, d := range w2.Letters() {
		d.WarmRoutesCtx(context.Background(), srcs)
	}
	par, err := RunAllCtx(context.Background(), w2, 4)
	if err != nil {
		t.Fatal(err)
	}

	if len(par) != len(serial) {
		t.Fatalf("parallel returned %d results, serial %d", len(par), len(serial))
	}
	for i := range serial {
		s, p := serial[i], par[i]
		if p.ID != s.ID {
			t.Fatalf("result %d: parallel ID %q, serial %q (order must match registry)", i, p.ID, s.ID)
		}
		if p.Measured != s.Measured {
			t.Errorf("%s: Measured differs\nserial:   %s\nparallel: %s", s.ID, s.Measured, p.Measured)
		}
		if p.Output != s.Output {
			t.Errorf("%s: Output differs (serial %d bytes, parallel %d bytes)",
				s.ID, len(s.Output), len(p.Output))
		}
	}
}

// TestRunAllParallelFallsBackSerial checks that workers 0 and 1 both take
// the one-worker path, with counter deltas attached when spans are
// collected, and that a worker pool omits them.
func TestRunAllParallelFallsBackSerial(t *testing.T) {
	w := testWorld(t)
	ctx := context.Background()
	obs.Enable()
	defer obs.Disable()
	runs := map[int][]Result{}
	for _, workers := range []int{0, 1, 4} {
		res, err := RunAllCtx(ctx, w, workers)
		if err != nil {
			t.Fatal(err)
		}
		runs[workers] = res
	}
	for workers, res := range runs {
		if len(res) != len(runs[1]) {
			t.Fatalf("workers=%d returned %d results, workers=1 %d", workers, len(res), len(runs[1]))
		}
		for i := range res {
			if res[i].ID != runs[1][i].ID || res[i].Output != runs[1][i].Output {
				t.Fatalf("%s: workers=%d output differs from workers=1", res[i].ID, workers)
			}
			if res[i].Stats == nil {
				t.Fatalf("%s: workers=%d: no RunStats with spans enabled", res[i].ID, workers)
			}
			if serial := workers <= 1; serial != (res[i].Stats.CounterDeltas != nil) {
				t.Errorf("%s: workers=%d: counter deltas present = %v, want %v",
					res[i].ID, workers, res[i].Stats.CounterDeltas != nil, serial)
			}
		}
	}
}

// TestParallelLoopsMatchSerialOracle is the serial oracle for the
// per-entity-stream loops: the same seed must produce byte-identical
// outputs whether the par fan-outs run on one worker or many. It builds
// one world pinned to GOMAXPROCS(1) (par runs everything serially) and
// one at GOMAXPROCS(8), then byte-compares world-derived artifacts from
// each migrated loop: the DITL campaign and rates (via experiment
// outputs), capture emission, ping sampling, and site affinity.
func TestParallelLoopsMatchSerialOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two worlds")
	}
	type probe struct {
		fig2a, fig3, fig11 string
		capture            []byte
		pings              string
		affinity           string
	}
	build := func(procs int) probe {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		w, err := BuildWorld(TestScaleConfig(5))
		if err != nil {
			t.Fatal(err)
		}
		var p probe
		for _, id := range []string{"fig2a", "fig3", "fig11"} {
			res, err := RunExperimentCtx(context.Background(), w, id)
			if err != nil {
				t.Fatal(err)
			}
			switch id {
			case "fig2a":
				p.fig2a = res.Output
			case "fig3":
				p.fig3 = res.Output
			case "fig11":
				p.fig11 = res.Output
			}
		}
		li, site := busiestLetterSite(w)
		var buf bytes.Buffer
		if _, err := w.Campaign().EmitSiteCapture(&buf, li, site, 2000, 9); err != nil {
			t.Fatal(err)
		}
		p.capture = buf.Bytes()
		p.pings = fmt.Sprintf("%+v", w.Atlas().Ping(w.Letters()[0], 3, 11))
		aff, err := w.Campaign().Affinity(li, 0.005, 48, 13)
		if err != nil {
			t.Fatal(err)
		}
		p.affinity = fmt.Sprintf("%+v", aff)
		return p
	}

	serial := build(1)
	parallel := build(8)
	if serial.fig2a != parallel.fig2a {
		t.Error("fig2a output differs between GOMAXPROCS=1 and 8")
	}
	if serial.fig3 != parallel.fig3 {
		t.Error("fig3 (rates) output differs between GOMAXPROCS=1 and 8")
	}
	if serial.fig11 != parallel.fig11 {
		t.Error("fig11 (DITL campaign) output differs between GOMAXPROCS=1 and 8")
	}
	if !bytes.Equal(serial.capture, parallel.capture) {
		t.Errorf("capture bytes differ: serial %d bytes, parallel %d bytes",
			len(serial.capture), len(parallel.capture))
	}
	if serial.pings != parallel.pings {
		t.Error("ping samples differ between GOMAXPROCS=1 and 8")
	}
	if serial.affinity != parallel.affinity {
		t.Error("affinity walks differ between GOMAXPROCS=1 and 8")
	}
}
