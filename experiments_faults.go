package anycastctx

// The robustness experiment: not a paper figure, but the paper's
// operating condition. §2.1's pipeline ingests 51.9B raw queries and
// discards ~64% as junk before analysis — the tooling that produced every
// figure survived malformed and partial input as a matter of course. This
// experiment injects a seeded fault mix into a real site capture and
// reports the degradation funnel: what was damaged, what each stage
// recovered, and that nothing aborted.

import (
	"bytes"
	"context"
	"fmt"

	"anycastctx/internal/ditl"
	"anycastctx/internal/faults"
	"anycastctx/internal/report"
	"anycastctx/internal/stage"
)

func init() {
	register(Experiment{
		ID:         "robust1",
		Title:      "Robustness: capture pipeline under seeded fault injection",
		PaperClaim: "the DITL pipeline survives hostile input (§2.1 discards ~64% of 51.9B raw queries before analysis)",
		Needs:      []stage.ID{stage.Campaign, stage.Rates},
		Run:        runRobust1,
	})
}

// robustCapturePackets bounds the capture used for fault injection.
const robustCapturePackets = 4000

func runRobust1(ctx context.Context, w *World, seed int64) (Result, error) {
	pol := w.Cfg.Faults
	if !pol.Enabled() {
		pol = faults.Uniform(w.Cfg.Seed, 0.01)
	}

	// Capture the busiest site of the letter with the most traffic so the
	// fault mix lands on a representative packet stream.
	li, site := busiestLetterSite(w)
	var buf bytes.Buffer
	n, err := w.Campaign().EmitSiteCaptureCtx(ctx, &buf, li, site, robustCapturePackets, seed)
	if err != nil {
		return Result{}, fmt.Errorf("robust1: emitting capture: %w", err)
	}
	if n == 0 {
		return Result{}, fmt.Errorf("robust1: letter %s site %d emitted no packets",
			w.Campaign().LetterNames[li], site)
	}

	m := faults.NewMangler(pol)
	damaged := m.MangleCapture(buf.Bytes())
	sum, err := ditl.SummarizeCapture(bytes.NewReader(damaged))
	if err != nil {
		return Result{}, fmt.Errorf("robust1: summarizing damaged capture: %w", err)
	}
	st := m.Stats()

	t := report.Table{
		Title:   fmt.Sprintf("Degradation funnel: %s site %d, seeded fault injection", w.Campaign().LetterNames[li], site),
		Headers: []string{"stage", "event", "count"},
	}
	t.AddRow("inject", "records in capture", fmt.Sprintf("%d", st.Records))
	t.AddRow("inject", "dropped", fmt.Sprintf("%d", st.Dropped))
	t.AddRow("inject", "corrupted (IP header)", fmt.Sprintf("%d", st.Corrupted))
	t.AddRow("inject", "truncated", fmt.Sprintf("%d", st.Truncated))
	t.AddRow("inject", "DNS byte flips", fmt.Sprintf("%d", st.DNSFlipped))
	t.AddRow("inject", "duplicated", fmt.Sprintf("%d", st.Duplicated))
	t.AddRow("inject", "reordered", fmt.Sprintf("%d", st.Reordered))
	t.AddRow("pcapio", "records read", fmt.Sprintf("%d", sum.RecordsRead))
	t.AddRow("pcapio", "reader drops (framing/EOF)", fmt.Sprintf("%d", sum.DroppedRecords))
	t.AddRow("pcapio", "bytes skipped", fmt.Sprintf("%d", sum.SkippedBytes))
	t.AddRow("decode", "truncated skipped", fmt.Sprintf("%d", sum.TruncatedRecords))
	t.AddRow("decode", "malformed packets skipped", fmt.Sprintf("%d", sum.MalformedPackets))
	t.AddRow("decode", "malformed DNS skipped", fmt.Sprintf("%d", sum.MalformedDNS))
	t.AddRow("summary", "packets analyzed", fmt.Sprintf("%d", sum.Packets))
	t.AddRow("summary", "UDP queries", fmt.Sprintf("%d", sum.UDPQueries))
	t.AddRow("summary", "responses", fmt.Sprintf("%d", sum.Responses))

	return Result{
		Measured: fmt.Sprintf("%d records emitted, %d damaged/lost, %d analyzed; every fault skipped and counted, zero aborts",
			st.Records, st.Injected()+sum.DroppedRecords, sum.Packets),
		Output: t.Render(),
	}, nil
}

// busiestLetterSite returns the (letter, site) pair carrying the most
// query volume in the campaign.
func busiestLetterSite(w *World) (li, site int) {
	best := -1.0
	for l := range w.Campaign().Letters {
		load := map[int]float64{}
		for ri := range w.Pop().Recursives {
			a := w.Campaign().At(l, ri)
			if !a.Reachable {
				continue
			}
			for _, s := range a.Sites() {
				load[s.SiteID] += w.Rates()[ri].RootTotalPerDay() * a.LetterWeight * s.Frac
			}
		}
		for id, v := range load {
			if v > best {
				li, site, best = l, id, v
			}
		}
	}
	return li, site
}
