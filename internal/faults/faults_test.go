package faults_test

import (
	"bytes"
	"testing"
	"time"

	"anycastctx/internal/faults"
	"anycastctx/internal/ipaddr"
	"anycastctx/internal/pcapio"
)

// buildCapture writes n UDP packets with a DNS-sized payload so every
// fault class (including DNS byte flips, which need >28 data bytes) has
// room to land.
func buildCapture(t *testing.T, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := pcapio.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2018, 4, 10, 0, 0, 0, 0, time.UTC)
	payload := make([]byte, 40)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	for i := 0; i < n; i++ {
		pkt, err := pcapio.SerializeUDPInto(nil, &pcapio.IPv4{Src: ipaddr.Addr(0x0a000001 + i), Dst: 0xc6290004},
			&pcapio.UDP{SrcPort: uint16(30000 + i), DstPort: 53}, payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := writePacket(w, base.Add(time.Duration(i)*time.Second), pkt); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestZeroPolicyIsIdentity(t *testing.T) {
	var p faults.Policy
	if p.Enabled() {
		t.Error("zero policy reports enabled")
	}
	if p.DropServerLogRow(3, 64500) || p.DropClientRow(3, 64500) {
		t.Error("zero policy drops rows")
	}
	if frac, withdrawn := p.SiteWithdrawCut(1, 2); withdrawn || frac != 0 {
		t.Error("zero policy withdraws sites")
	}
	capture := buildCapture(t, 20)
	out := faults.NewMangler(p).MangleCapture(capture)
	if !bytes.Equal(out, capture) {
		t.Error("zero policy changed capture bytes")
	}
}

func TestManglerDeterministicPerSeed(t *testing.T) {
	capture := buildCapture(t, 60)
	p := faults.Uniform(42, 0.2)
	m1, m2 := faults.NewMangler(p), faults.NewMangler(p)
	out1, out2 := m1.MangleCapture(capture), m2.MangleCapture(capture)
	if !bytes.Equal(out1, out2) {
		t.Error("equal seeds manged differently")
	}
	f1, f2 := m1.Fates(), m2.Fates()
	if len(f1) != len(f2) || len(f1) != 60 {
		t.Fatalf("fates = %d/%d, want 60", len(f1), len(f2))
	}
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatalf("fate %d differs: %v vs %v", i, f1[i], f2[i])
		}
	}
	other := faults.NewMangler(faults.Uniform(43, 0.2)).MangleCapture(capture)
	if bytes.Equal(out1, other) {
		t.Error("different seeds mangled identically")
	}
}

func TestFateAccountingMatchesOutput(t *testing.T) {
	capture := buildCapture(t, 80)
	m := faults.NewMangler(faults.Uniform(7, 0.15))
	damaged := m.MangleCapture(capture)
	st := m.Stats()
	fates := m.Fates()
	if st.Records != 80 || len(fates) != 80 {
		t.Fatalf("records = %d, fates = %d", st.Records, len(fates))
	}

	// Re-count the fates and predict exactly what a reader must see.
	var dropped, corrupted, truncated, flipped, duplicated int
	wantEmitted, wantTruncatedReads := 0, 0
	for _, f := range fates {
		copies := 1
		if f&faults.FateDropped != 0 {
			dropped++
			copies = 0
		}
		if f&faults.FateDuplicated != 0 {
			duplicated++
			copies = 2
		}
		if f&faults.FateCorrupted != 0 {
			corrupted++
		}
		if f&faults.FateTruncated != 0 {
			truncated++
			wantTruncatedReads += copies
		}
		if f&faults.FateDNSFlipped != 0 {
			flipped++
		}
		wantEmitted += copies
	}
	if dropped != st.Dropped || corrupted != st.Corrupted || truncated != st.Truncated ||
		flipped != st.DNSFlipped || duplicated != st.Duplicated {
		t.Errorf("fates %d/%d/%d/%d/%d disagree with stats %+v",
			dropped, corrupted, truncated, flipped, duplicated, st)
	}
	if st.Injected() != dropped+corrupted+truncated+flipped {
		t.Errorf("Injected() = %d", st.Injected())
	}

	// Every fault class must have fired at least once at this rate and
	// size — otherwise the test proves nothing.
	if dropped == 0 || corrupted == 0 || truncated == 0 || flipped == 0 || duplicated == 0 || st.Reordered == 0 {
		t.Fatalf("fault class never fired: %+v", st)
	}

	// The damaged capture stays strictly well-framed: mangling changes
	// content, not framing, so even the strict reader sees every emitted
	// record, with exactly the truncated ones flagged.
	r, err := pcapio.NewReader(bytes.NewReader(damaged))
	if err != nil {
		t.Fatal(err)
	}
	gotRecords, gotTruncated := 0, 0
	if err := r.ForEach(func(rec pcapio.Record) error {
		gotRecords++
		if rec.Truncated {
			gotTruncated++
		}
		return nil
	}); err != nil {
		t.Fatalf("strict read of mangled capture: %v", err)
	}
	if gotRecords != wantEmitted {
		t.Errorf("reader saw %d records, fates predict %d", gotRecords, wantEmitted)
	}
	if gotTruncated != wantTruncatedReads {
		t.Errorf("reader flagged %d truncated, fates predict %d", gotTruncated, wantTruncatedReads)
	}
}

func TestPolicyDecisionsAreKeyDeterministic(t *testing.T) {
	p := faults.Policy{Seed: 11, TelemetryDropProb: 0.5, SiteWithdrawProb: 0.5}
	for i := 0; i < 100; i++ {
		a := p.DropServerLogRow(i, int64(64000+i))
		b := p.DropServerLogRow(i, int64(64000+i))
		if a != b {
			t.Fatal("DropServerLogRow not deterministic per key")
		}
	}
	// Server and client streams must be independent: same keys, at least
	// one differing decision at 50% each.
	differs := false
	for i := 0; i < 100; i++ {
		if p.DropServerLogRow(i, 64000) != p.DropClientRow(i, 64000) {
			differs = true
			break
		}
	}
	if !differs {
		t.Error("server and client drop streams identical")
	}
	withdrawn := 0
	for site := 0; site < 200; site++ {
		frac, w := p.SiteWithdrawCut(1, site)
		if !w {
			continue
		}
		withdrawn++
		if frac < 0.25 || frac >= 0.75 {
			t.Fatalf("withdraw frac %v out of [0.25, 0.75)", frac)
		}
	}
	if withdrawn == 0 || withdrawn == 200 {
		t.Errorf("withdrawn = %d of 200 at 50%%", withdrawn)
	}
}

func TestMangleCaptureDegenerateInputs(t *testing.T) {
	m := faults.NewMangler(faults.Uniform(5, 0.5))
	if out := m.MangleCapture(nil); out != nil {
		t.Errorf("nil capture = %v", out)
	}
	short := []byte{0xd4, 0xc3}
	if out := m.MangleCapture(short); !bytes.Equal(out, short) {
		t.Error("short capture not passed through")
	}
	// A misframed tail (garbage after valid records) passes through
	// verbatim so the reader's own recovery handles it.
	capture := buildCapture(t, 3)
	withTail := append(append([]byte{}, capture...), 0xAA, 0xBB, 0xCC)
	out := faults.NewMangler(faults.Policy{Seed: 5}).MangleCapture(withTail)
	if !bytes.Equal(out[len(out)-3:], []byte{0xAA, 0xBB, 0xCC}) {
		t.Error("misframed tail not preserved")
	}
}

// TestFatesFollowRecordIdentity is the regression gate for parallel
// emission paths: fate decisions must key on record identity (timestamp +
// bytes), never on arrival index, so the same records in a different
// order draw the same fates. Reorder is excluded — pair-swapping adjacent
// emitted records is inherently positional.
func TestFatesFollowRecordIdentity(t *testing.T) {
	capture := buildCapture(t, 64)
	r, err := pcapio.NewReader(bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	var recs []pcapio.Record
	if err := r.ForEach(func(rec pcapio.Record) error {
		recs = append(recs, pcapio.Record{Time: rec.Time, Data: append([]byte(nil), rec.Data...)})
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// Rebuild the capture with the records in a fixed permutation
	// (reversed, then odd/even interleaved) that moves every index.
	perm := make([]int, len(recs))
	for i := range perm {
		if i%2 == 0 {
			perm[i] = len(recs) - 1 - i/2
		} else {
			perm[i] = i / 2
		}
	}
	var buf bytes.Buffer
	w, err := pcapio.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range perm {
		if err := writePacket(w, recs[i].Time, recs[i].Data); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	pol := faults.Policy{
		Seed:              99,
		PcapDropProb:      0.15,
		PcapCorruptProb:   0.15,
		PcapTruncateProb:  0.15,
		PcapDuplicateProb: 0.15,
		PcapReorderProb:   0.15,
		DNSByteFlipProb:   0.15,
	}
	m1 := faults.NewMangler(pol)
	m1.MangleCapture(capture)
	f1 := m1.Fates()
	m2 := faults.NewMangler(pol)
	m2.MangleCapture(buf.Bytes())
	f2 := m2.Fates()

	hit := 0
	for j, i := range perm {
		if f1[i] != 0 {
			hit++
		}
		if a, b := f1[i], f2[j]; a != b {
			t.Errorf("record %d: fate %v in original order, %v when arriving at index %d", i, a, b, j)
		}
	}
	if hit < 10 {
		t.Fatalf("only %d of %d records drew a fate: mix too sparse to prove identity keying", hit, len(recs))
	}
}

// writePacket frames one record and appends it to w.
func writePacket(w *pcapio.Writer, ts time.Time, data []byte) error {
	rec, err := pcapio.AppendRecord(nil, ts, data)
	if err != nil {
		return err
	}
	return w.WriteRaw(rec)
}
