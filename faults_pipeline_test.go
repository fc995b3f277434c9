package anycastctx

// End-to-end fault-injection test: a capture damaged at the pcap layer
// must flow through the analysis pipeline without aborting, and the
// figures computed from it must be byte-identical to the figures computed
// from just the surviving records — degradation drops data, it never
// distorts it.

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"anycastctx/internal/ditl"
	"anycastctx/internal/faults"
	"anycastctx/internal/pcapio"
)

// analysisFields projects the analysis-relevant part of a capture
// summary (everything except the degradation accounting) into a
// comparable string.
func analysisFields(s *ditl.CaptureSummary) string {
	return fmt.Sprintf("packets=%d udp=%d tcp=%d resp=%d nx=%d ptr=%d span=%v sources=%v",
		s.Packets, s.UDPQueries, s.TCPPackets, s.Responses, s.NXDomain, s.PTRQueries,
		s.FirstToLast, s.Sources)
}

func emitTestCapture(t *testing.T, w *World, seed int64, maxPackets int) ([]byte, int, int, int) {
	t.Helper()
	li, site := busiestLetterSite(w)
	var buf bytes.Buffer
	n, err := w.Campaign().EmitSiteCapture(&buf, li, site, maxPackets, seed)
	if err != nil {
		t.Fatal(err)
	}
	if n < 100 {
		t.Fatalf("only %d packets emitted", n)
	}
	return buf.Bytes(), n, li, site
}

func TestPipelineSurvivesFaults(t *testing.T) {
	w := testWorld(t)
	capture, _, _, _ := emitTestCapture(t, w, 1234, 3000)

	t.Run("byte_identity", func(t *testing.T) {
		// No DNS flips here: a flipped DNS byte may still decode (into a
		// different message), so those records are excluded from the
		// byte-identity contract. Every other damage class is provably
		// rejected or removed before analysis.
		pol := faults.Policy{
			Seed:              4242,
			PcapDropProb:      0.01,
			PcapCorruptProb:   0.01,
			PcapTruncateProb:  0.01,
			PcapDuplicateProb: 0.01,
			PcapReorderProb:   0.01,
		}
		m := faults.NewMangler(pol)
		damaged := m.MangleCapture(capture)
		fates := m.Fates()
		st := m.Stats()
		if st.Dropped == 0 || st.Corrupted == 0 || st.Truncated == 0 || st.Duplicated == 0 || st.Reordered == 0 {
			t.Fatalf("fault mix too sparse to prove anything: %+v", st)
		}

		// Rebuild the expected capture from the fates: survivors only,
		// duplicated survivors twice.
		var records []pcapio.Record
		r, err := pcapio.NewReader(bytes.NewReader(capture))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.ForEach(func(rec pcapio.Record) error {
			records = append(records, rec)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(records) != len(fates) {
			t.Fatalf("%d records, %d fates", len(records), len(fates))
		}
		var expected bytes.Buffer
		ew, err := pcapio.NewWriter(&expected)
		if err != nil {
			t.Fatal(err)
		}
		wantMalformed := 0
		for i, rec := range records {
			copies := 1
			if fates[i]&faults.FateDuplicated != 0 {
				copies = 2
			}
			if fates[i]&faults.FateCorrupted != 0 {
				wantMalformed += copies
			}
			if fates[i]&(faults.FateDropped|faults.FateCorrupted|faults.FateTruncated|faults.FateDNSFlipped) != 0 {
				continue
			}
			for c := 0; c < copies; c++ {
				framed, err := pcapio.AppendRecord(nil, rec.Time, rec.Data)
				if err != nil {
					t.Fatal(err)
				}
				if err := ew.WriteRaw(framed); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := ew.Close(); err != nil {
			t.Fatal(err)
		}

		wantSum, err := ditl.SummarizeCapture(bytes.NewReader(expected.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		gotSum, err := ditl.SummarizeCapture(bytes.NewReader(damaged))
		if err != nil {
			t.Fatalf("summarizing damaged capture: %v", err)
		}
		if got, want := analysisFields(gotSum), analysisFields(wantSum); got != want {
			t.Errorf("damaged-capture analysis diverged from surviving subset:\n got %s\nwant %s", got, want)
		}
		// The degradation accounting must line up with what was injected:
		// truncated records are flagged-and-skipped, corrupted ones fail
		// packet decode, dropped ones are simply absent.
		if gotSum.Packets+gotSum.Skipped() != gotSum.RecordsRead {
			t.Errorf("accounting leak: %d packets + %d skipped != %d read",
				gotSum.Packets, gotSum.Skipped(), gotSum.RecordsRead)
		}
		if gotSum.MalformedPackets != wantMalformed {
			t.Errorf("malformed packets %d != injected corrupted copies %d", gotSum.MalformedPackets, wantMalformed)
		}
	})

	t.Run("all_faults_complete", func(t *testing.T) {
		m := faults.NewMangler(faults.Uniform(777, 0.03))
		mangled := m.MangleCapture(capture)
		damaged := mangled[:len(mangled)-7] // a mid-record EOF
		sum, err := ditl.SummarizeCapture(bytes.NewReader(damaged))
		if err != nil {
			t.Fatalf("pipeline aborted on damaged capture: %v", err)
		}
		if sum.Packets == 0 {
			t.Fatal("no packets survived a 3% fault mix")
		}
		if sum.Packets+sum.Skipped() != sum.RecordsRead {
			t.Errorf("accounting leak: %d + %d != %d", sum.Packets, sum.Skipped(), sum.RecordsRead)
		}
		// A 7-byte tail cut always lands inside the final record's data
		// (every record carries a 20-byte-plus IP packet), so lenient
		// recovery must count exactly one dropped record.
		if sum.DroppedRecords != 1 {
			t.Errorf("dropped records = %d, want 1 (the cut tail)", sum.DroppedRecords)
		}
	})

	t.Run("telemetry_rows_subset", func(t *testing.T) {
		cleanLogs := w.CDN().ServerSideLogsCtx(context.Background(), w.Locations(), 5)
		cleanClient := w.CDN().ClientMeasurementsCtx(context.Background(), w.Locations(), 6)

		w.CDN().Faults = faults.Policy{Seed: 31, TelemetryDropProb: 0.2}
		defer func() { w.CDN().Faults = faults.Policy{} }()
		faultyLogs := w.CDN().ServerSideLogsCtx(context.Background(), w.Locations(), 5)
		faultyClient := w.CDN().ClientMeasurementsCtx(context.Background(), w.Locations(), 6)

		if len(faultyLogs) >= len(cleanLogs) {
			t.Errorf("server rows: %d faulty vs %d clean, expected losses", len(faultyLogs), len(cleanLogs))
		}
		if len(faultyClient) >= len(cleanClient) {
			t.Errorf("client rows: %d faulty vs %d clean, expected losses", len(faultyClient), len(cleanClient))
		}
		// Surviving rows must be byte-identical to their clean-run
		// counterparts: row loss never perturbs other rows' noise draws.
		cleanSet := make(map[string]bool, len(cleanLogs))
		for _, row := range cleanLogs {
			cleanSet[fmt.Sprintf("%v", row)] = true
		}
		for _, row := range faultyLogs {
			if !cleanSet[fmt.Sprintf("%v", row)] {
				t.Fatalf("faulty-run row not present in clean run: %+v", row)
			}
		}
		cleanCSet := make(map[string]bool, len(cleanClient))
		for _, row := range cleanClient {
			cleanCSet[fmt.Sprintf("%v", row)] = true
		}
		for _, row := range faultyClient {
			if !cleanCSet[fmt.Sprintf("%v", row)] {
				t.Fatalf("faulty-run client row not present in clean run: %+v", row)
			}
		}
	})

	t.Run("site_withdrawal", func(t *testing.T) {
		_, cleanN, li, site := emitTestCapture(t, w, 555, 3000)

		pol := faults.Policy{Seed: 17, SiteWithdrawProb: 1}
		frac, withdrawn := pol.SiteWithdrawCut(li, site)
		if !withdrawn {
			t.Fatal("probability-1 policy did not withdraw the site")
		}
		w.Campaign().Faults = pol
		defer func() { w.Campaign().Faults = faults.Policy{} }()
		var buf bytes.Buffer
		n, err := w.Campaign().EmitSiteCapture(&buf, li, site, 3000, 555)
		if err != nil {
			t.Fatal(err)
		}
		if n >= cleanN {
			t.Errorf("withdrawn-site capture has %d packets, clean has %d", n, cleanN)
		}
		sum, err := ditl.SummarizeCapture(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if sum.Packets != n {
			t.Errorf("summary packets %d != emitted %d", sum.Packets, n)
		}
		// The cut-off truncates the capture window: no surviving packet is
		// timestamped past it.
		if limit := time.Duration(frac * float64(48*time.Hour)); sum.FirstToLast > limit {
			t.Errorf("capture span %v exceeds withdrawal cut-off %v", sum.FirstToLast, limit)
		}
	})
}
