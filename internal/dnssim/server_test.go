package dnssim

import (
	"bytes"
	"testing"

	"anycastctx/internal/dnswire"
)

func TestRootServerReferral(t *testing.T) {
	z := testZone(t)
	s := NewRootServer(z, "K")
	q := dnswire.NewQuery(9, "example.com", dnswire.TypeA)
	resp := s.Respond(q)
	if resp.Header.ID != 9 || !resp.Header.Response {
		t.Fatalf("header = %+v", resp.Header)
	}
	if resp.Header.RCode != dnswire.RCodeNoError {
		t.Fatalf("rcode = %v", resp.Header.RCode)
	}
	if resp.Header.Authoritative {
		t.Error("referral must not be authoritative")
	}
	com, _ := z.Lookup("com")
	if len(resp.Authority) != len(com.NSNames) {
		t.Fatalf("authority = %d, want %d", len(resp.Authority), len(com.NSNames))
	}
	for i, rr := range resp.Authority {
		if rr.Type != dnswire.TypeNS || rr.TTL != TLDTTLSeconds || rr.Name != "com" {
			t.Fatalf("authority[%d] = %+v", i, rr)
		}
		want, err := dnswire.NameRData(com.NSNames[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rr.RData, want) {
			t.Errorf("NS %d rdata = %x, want %q", i, rr.RData, com.NSNames[i])
		}
	}
	if len(resp.Additional) != com.GluedA {
		t.Fatalf("glue = %d, want %d", len(resp.Additional), com.GluedA)
	}
	for _, rr := range resp.Additional {
		if rr.Type != dnswire.TypeA || len(rr.RData) != 4 {
			t.Fatalf("glue record = %+v", rr)
		}
	}
	// The full message must round-trip through the wire codec.
	b, err := resp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := dnswire.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Authority) != len(resp.Authority) || len(back.Additional) != len(resp.Additional) {
		t.Error("referral does not round-trip")
	}
}

func TestRootServerNXDomain(t *testing.T) {
	z := testZone(t)
	s := NewRootServer(z, "A")
	resp := s.Respond(dnswire.NewQuery(3, "host.invalidtldxyz", dnswire.TypeA))
	if resp.Header.RCode != dnswire.RCodeNXDomain {
		t.Fatalf("rcode = %v", resp.Header.RCode)
	}
	if len(resp.Authority) != 1 || resp.Authority[0].Type != dnswire.TypeSOA {
		t.Fatalf("NXDOMAIN should carry the root SOA, got %+v", resp.Authority)
	}
	if resp.Authority[0].TTL != 86400 {
		t.Errorf("negative TTL = %d", resp.Authority[0].TTL)
	}
}

func TestRootServerEdgeCases(t *testing.T) {
	z := testZone(t)
	s := NewRootServer(z, "B")
	// No question: FORMERR.
	resp := s.Respond(&dnswire.Message{Header: dnswire.Header{ID: 1}})
	if resp.Header.RCode != dnswire.RCodeFormErr {
		t.Errorf("empty question rcode = %v", resp.Header.RCode)
	}
	// The root itself.
	resp = s.Respond(dnswire.NewQuery(2, ".", dnswire.TypeNS))
	if resp.Header.RCode != dnswire.RCodeNoError {
		t.Errorf("root query rcode = %v", resp.Header.RCode)
	}
	// Bare TLD query gets a referral too.
	resp = s.Respond(dnswire.NewQuery(4, "net", dnswire.TypeNS))
	if len(resp.Authority) == 0 {
		t.Error("bare TLD query got no referral")
	}
}

func TestGlueAddrStable(t *testing.T) {
	a := glueAddr("com", 0)
	b := glueAddr("com", 0)
	if string(a) != string(b) {
		t.Error("glue not deterministic")
	}
	if string(glueAddr("com", 0)) == string(glueAddr("com", 1)) {
		t.Error("glue for distinct NS identical")
	}
	if string(glueAddr("com", 0)) == string(glueAddr("net", 0)) {
		t.Error("glue for distinct TLDs identical")
	}
}

func TestRootServerAgainstRandomQueries(t *testing.T) {
	z := testZone(t)
	s := NewRootServer(z, "C")
	client := NewClient(z, ClientConfig{}, 77)
	for i := 0; i < 500; i++ {
		var name string
		switch i % 3 {
		case 0:
			name = client.sampleDomain().String()
		case 1:
			name = client.sampleChromiumProbe()
		default:
			name = client.sampleJunk().String()
		}
		resp := s.Respond(dnswire.NewQuery(uint16(i), name, dnswire.TypeA))
		if b, err := resp.Encode(); err != nil {
			t.Fatalf("encoding response for %q: %v", name, err)
		} else if _, err := dnswire.Decode(b); err != nil {
			t.Fatalf("decoding response for %q: %v", name, err)
		}
	}
}

func TestRootServerTruncatesWithoutEDNS(t *testing.T) {
	// Build a zone whose delegations are fat enough that a referral
	// overflows 512 bytes without EDNS.
	z := testZone(t)
	var fat *TLD
	for i := range z.TLDs {
		if len(z.TLDs[i].NSNames) >= 4 {
			fat = &z.TLDs[i]
			break
		}
	}
	if fat == nil {
		t.Skip("no fat delegation in zone")
	}
	// Inflate the NS set to force overflow for the classic limit.
	for len(fat.NSNames) < 24 {
		fat.NSNames = append(fat.NSNames,
			"very-long-nameserver-label-padding-"+fat.Name+".example-operator-network.net")
	}
	s := NewRootServer(z, "K")

	plain := dnswire.NewQuery(1, "host."+fat.Name, dnswire.TypeA)
	resp := s.Respond(plain)
	if !resp.Header.Truncated {
		t.Fatal("oversized referral not truncated for non-EDNS query")
	}
	if len(resp.Authority) != 0 || len(resp.Additional) != 0 {
		t.Fatal("truncated response still carries sections")
	}

	edns := dnswire.NewQuery(2, "host."+fat.Name, dnswire.TypeA)
	edns.SetEDNS(4096, false)
	resp2 := s.Respond(edns)
	if resp2.Header.Truncated {
		t.Fatal("EDNS query truncated despite 4096-byte buffer")
	}
	if len(resp2.Authority) == 0 {
		t.Fatal("EDNS referral missing authority records")
	}
}
