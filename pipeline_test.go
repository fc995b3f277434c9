package anycastctx

// End-to-end pipeline test: the DITL capture path from the simulator's
// assignments through real pcap bytes and back through the decode-based
// summarizer, cross-checked against the campaign's ground truth.

import (
	"bytes"
	"testing"

	"anycastctx/internal/ditl"
	"anycastctx/internal/dnswire"
	"anycastctx/internal/ipaddr"
	"anycastctx/internal/pcapio"
)

func TestCapturePipelineEndToEnd(t *testing.T) {
	w := testWorld(t)

	// Pick the letter with the most sites and its busiest site.
	li := w.Campaign().LetterIndex("L")
	if li < 0 {
		t.Fatal("letter L missing")
	}
	load := map[int]float64{}
	for ri := range w.Pop().Recursives {
		a := w.Campaign().At(li, ri)
		if !a.Reachable {
			continue
		}
		for _, s := range a.Sites() {
			load[s.SiteID] += w.Rates()[ri].RootTotalPerDay() * a.LetterWeight * s.Frac
		}
	}
	busiest, best := 0, 0.0
	for id, v := range load {
		if v > best {
			busiest, best = id, v
		}
	}

	var buf bytes.Buffer
	n, err := w.Campaign().EmitSiteCapture(&buf, li, busiest, 5000, 77)
	if err != nil {
		t.Fatal(err)
	}
	if n < 1000 {
		t.Fatalf("only %d packets emitted for the busiest site", n)
	}

	sum, err := ditl.SummarizeCapture(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Packets != n {
		t.Errorf("summary packets %d != emitted %d", sum.Packets, n)
	}
	// Responses roughly pair with UDP queries from recursives.
	if sum.Responses == 0 || sum.UDPQueries == 0 {
		t.Fatal("capture missing queries or responses")
	}
	// Every non-junk source /24 must be a recursive whose catchment for
	// this letter includes the busiest site.
	junk24 := map[ipaddr.Slash24Key]bool{}
	for _, ip := range w.Campaign().JunkSources {
		junk24[ipaddr.Key24(ip)] = true
	}
	for key := range sum.Sources {
		if junk24[key] {
			continue
		}
		rec, ok := w.Pop().ByKey(key)
		if !ok {
			t.Fatalf("capture source %s is not a recursive or junk /24", key)
		}
		var ri int
		for i := range w.Pop().Recursives {
			if w.Pop().Recursives[i].Key == rec.Key {
				ri = i
				break
			}
		}
		a := w.Campaign().At(li, ri)
		found := false
		for _, s := range a.Sites() {
			if s.SiteID == busiest {
				found = true
			}
		}
		if !found {
			t.Fatalf("source %s captured at site %d outside its catchment", key, busiest)
		}
	}
	// NXDOMAIN responses exist (junk/probe queries answered by the real
	// authoritative server).
	if sum.NXDomain == 0 {
		t.Error("no NXDOMAIN responses in capture")
	}
}

func TestCaptureReferralsCarryGlue(t *testing.T) {
	// With the zone attached, valid TLD queries must be answered with
	// referrals that contain NS authority records and A glue.
	w := testWorld(t)
	var buf bytes.Buffer
	li := w.Campaign().LetterIndex("C")
	if _, err := w.Campaign().EmitSiteCapture(&buf, li, 0, 4000, 78); err != nil {
		t.Fatal(err)
	}
	pr, err := pcapio.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	referrals := 0
	err = pr.ForEach(func(rec pcapio.Record) error {
		pkt, err := pcapio.DecodePacket(rec.Data)
		if err != nil {
			return err
		}
		payload := pkt.Payload
		if len(payload) == 0 {
			return nil
		}
		msg, err := dnswire.Decode(payload)
		if err != nil {
			return err
		}
		if !msg.Header.Response || len(msg.Authority) == 0 {
			return nil
		}
		hasNS := false
		for _, rr := range msg.Authority {
			if rr.Type == dnswire.TypeNS {
				hasNS = true
				if !wellFormedName(rr.RData) {
					t.Fatalf("unparseable NS rdata: %x", rr.RData)
				}
			}
		}
		if hasNS {
			referrals++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if referrals == 0 {
		t.Error("no referrals with NS records found in capture")
	}
}

// wellFormedName reports whether rd is exactly one uncompressed
// wire-format domain name: length-prefixed labels of at most 63 bytes
// ending in the root label.
func wellFormedName(rd []byte) bool {
	for i := 0; i < len(rd); i += int(rd[i]) + 1 {
		switch {
		case rd[i] == 0:
			return i == len(rd)-1
		case rd[i] > 63:
			return false
		}
	}
	return false
}
