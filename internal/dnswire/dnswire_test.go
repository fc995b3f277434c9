package dnswire

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestQueryRoundTrip(t *testing.T) {
	q := NewQuery(0x1234, "www.example.com", TypeA)
	b, err := q.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Header.ID != 0x1234 || got.Header.Response || !got.Header.RecursionDesired {
		t.Errorf("header = %+v", got.Header)
	}
	if len(got.Questions) != 1 {
		t.Fatalf("questions = %d", len(got.Questions))
	}
	qq := got.Questions[0]
	if qq.Name != "www.example.com" || qq.Type != TypeA || qq.Class != ClassIN {
		t.Errorf("question = %+v", qq)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	q := NewQuery(7, "com", TypeNS)
	nsData, err := NameRData("a.gtld-servers.net")
	if err != nil {
		t.Fatal(err)
	}
	resp := NewResponse(q, RCodeNoError, []RR{
		{Name: "com", Type: TypeNS, Class: ClassIN, TTL: 172800, RData: nsData},
	})
	resp.Additional = []RR{
		{Name: "a.gtld-servers.net", Type: TypeA, Class: ClassIN, TTL: 172800, RData: ARData(192, 5, 6, 30)},
	}
	b, err := resp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Header.Response || !got.Header.Authoritative || got.Header.RCode != RCodeNoError {
		t.Errorf("header = %+v", got.Header)
	}
	if len(got.Answers) != 1 || len(got.Additional) != 1 {
		t.Fatalf("sections = %d/%d", len(got.Answers), len(got.Additional))
	}
	name, _, err := decodeName(got.Answers[0].RData, 0)
	if err != nil {
		t.Fatal(err)
	}
	if name != "a.gtld-servers.net" {
		t.Errorf("NS rdata = %q", name)
	}
	if got.Answers[0].TTL != 172800 {
		t.Errorf("TTL = %d", got.Answers[0].TTL)
	}
	if !bytes.Equal(got.Additional[0].RData, []byte{192, 5, 6, 30}) {
		t.Errorf("A rdata = %v", got.Additional[0].RData)
	}
}

func TestNXDomainResponse(t *testing.T) {
	q := NewQuery(9, "bogus-tld-xyzzy", TypeA)
	resp := NewResponse(q, RCodeNXDomain, nil)
	b, err := resp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Header.RCode != RCodeNXDomain {
		t.Errorf("rcode = %v", got.Header.RCode)
	}
	if len(got.Questions) != 1 || got.Questions[0].Name != "bogus-tld-xyzzy" {
		t.Errorf("question = %+v", got.Questions)
	}
}

func TestNameCompressionShrinksMessage(t *testing.T) {
	mk := func(compress bool) int {
		m := &Message{Header: Header{ID: 1, Response: true}}
		m.Questions = []Question{{Name: "example.com", Type: TypeNS, Class: ClassIN}}
		for i := 0; i < 6; i++ {
			rd, _ := NameRData("ns.example.com")
			m.Answers = append(m.Answers, RR{Name: "example.com", Type: TypeNS, Class: ClassIN, TTL: 60, RData: rd})
		}
		b, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !compress {
			// Rebuild without compression by encoding each name alone.
			var raw []byte
			raw = append(raw, b[:12]...)
			// Just estimate: uncompressed name is 13 bytes each occurrence.
			return len(b) + 6*11 // lower bound check below doesn't use this
		}
		return len(b)
	}
	compressed := mk(true)
	// Compressed: question name 13 bytes, then each answer name is a
	// 2-byte pointer. Uncompressed would repeat 13 bytes per answer.
	if compressed >= 12+13+4+6*(13+10+16) {
		t.Errorf("message does not appear compressed: %d bytes", compressed)
	}
	// And it still decodes correctly.
	m := &Message{Header: Header{ID: 1}}
	m.Questions = []Question{{Name: "example.com", Type: TypeNS, Class: ClassIN}}
	rd, _ := NameRData("ns.example.com")
	m.Answers = append(m.Answers, RR{Name: "www.example.com", Type: TypeNS, Class: ClassIN, TTL: 60, RData: rd})
	b, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Answers[0].Name != "www.example.com" {
		t.Errorf("compressed answer name = %q", got.Answers[0].Name)
	}
}

func TestRootNameEncoding(t *testing.T) {
	q := NewQuery(3, ".", TypeNS)
	b, err := q.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Questions[0].Name != "." {
		t.Errorf("root name = %q", got.Questions[0].Name)
	}
}

func TestTrailingDotNormalized(t *testing.T) {
	q := NewQuery(4, "example.com.", TypeA)
	b, err := q.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Questions[0].Name != "example.com" {
		t.Errorf("name = %q", got.Questions[0].Name)
	}
}

func TestEncodeErrors(t *testing.T) {
	if _, err := AppendName(nil, strings.Repeat("a", 64)+".com", nil); !errors.Is(err, ErrLabelTooLong) {
		t.Errorf("long label err = %v", err)
	}
	long := strings.Repeat("abcdefgh.", 32) + "com"
	if _, err := AppendName(nil, long, nil); !errors.Is(err, ErrNameTooLong) {
		t.Errorf("long name err = %v", err)
	}
	if _, err := AppendName(nil, "a..b", nil); err == nil {
		t.Error("empty label accepted")
	}
	m := NewQuery(1, "x", TypeA)
	m.Answers = []RR{{Name: "x", Type: TypeTXT, Class: ClassIN, RData: make([]byte, 70000)}}
	if _, err := m.Encode(); err == nil {
		t.Error("oversized rdata accepted")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); !errors.Is(err, ErrTruncatedMessage) {
		t.Errorf("nil err = %v", err)
	}
	if _, err := Decode(make([]byte, 5)); !errors.Is(err, ErrTruncatedMessage) {
		t.Errorf("short err = %v", err)
	}
	// Header claims a question but none present.
	b := make([]byte, 12)
	b[5] = 1 // QDCOUNT = 1
	if _, err := Decode(b); err == nil {
		t.Error("missing question accepted")
	}
	// Forward-pointing compression pointer must be rejected.
	q := NewQuery(1, "example.com", TypeA)
	enc, _ := q.Encode()
	enc[12] = 0xC0
	enc[13] = 0xFF // points past itself
	if _, err := Decode(enc); err == nil {
		t.Error("forward pointer accepted")
	}
	// Truncated label.
	bad := append([]byte{}, make([]byte, 12)...)
	bad[5] = 1
	bad = append(bad, 30) // label of 30 bytes, but nothing follows
	if _, err := Decode(bad); !errors.Is(err, ErrTruncatedMessage) {
		t.Errorf("truncated label err = %v", err)
	}
	// Reserved label type 0x80.
	bad2 := append([]byte{}, make([]byte, 12)...)
	bad2[5] = 1
	bad2 = append(bad2, 0x80, 0, 0, 1, 0, 1)
	if _, err := Decode(bad2); err == nil {
		t.Error("reserved label type accepted")
	}
}

func TestDecodePointerLoopRejected(t *testing.T) {
	// Craft a message where a name at offset 14 points to offset 12, which
	// points forward — must not loop forever. Backward-only rule rejects
	// equal/forward targets, so build two pointers that reference each
	// other via a backward hop: ptr at 14 -> 12, and at 12 a pointer is
	// invalid because 12 is the first name byte... construct directly:
	b := make([]byte, 12)
	b[5] = 1
	// offset 12: pointer to offset 12 (self) — ptr >= off, rejected.
	b = append(b, 0xC0, 12, 0, 1, 0, 1)
	if _, err := Decode(b); !errors.Is(err, ErrBadPointer) {
		t.Errorf("self pointer err = %v", err)
	}
}

func TestFullMessageRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	labels := []string{"com", "net", "org", "example", "www", "a", "gtld-servers", "root-servers", "xn--test"}
	randName := func() string {
		n := 1 + rng.Intn(4)
		parts := make([]string, n)
		for i := range parts {
			parts[i] = labels[rng.Intn(len(labels))]
		}
		return strings.Join(parts, ".")
	}
	for trial := 0; trial < 300; trial++ {
		m := &Message{
			Header: Header{
				ID:                 uint16(rng.Intn(65536)),
				Response:           rng.Intn(2) == 0,
				Opcode:             uint8(rng.Intn(3)),
				Authoritative:      rng.Intn(2) == 0,
				RecursionDesired:   rng.Intn(2) == 0,
				RecursionAvailable: rng.Intn(2) == 0,
				RCode:              RCode(rng.Intn(6)),
			},
		}
		for i := 0; i < 1+rng.Intn(2); i++ {
			m.Questions = append(m.Questions, Question{Name: randName(), Type: Type(1 + rng.Intn(30)), Class: ClassIN})
		}
		for i := 0; i < rng.Intn(4); i++ {
			rd := make([]byte, rng.Intn(20))
			rng.Read(rd)
			m.Answers = append(m.Answers, RR{Name: randName(), Type: TypeTXT, Class: ClassIN, TTL: uint32(rng.Intn(172800)), RData: rd})
		}
		for i := 0; i < rng.Intn(3); i++ {
			m.Authority = append(m.Authority, RR{Name: randName(), Type: TypeNS, Class: ClassIN, TTL: 3600, RData: mustNameRData(t, randName())})
		}
		b, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("decode trial %d: %v (msg %+v)", trial, err, m)
		}
		if got.Header != m.Header {
			t.Fatalf("header mismatch: %+v vs %+v", got.Header, m.Header)
		}
		if !reflect.DeepEqual(normQuestions(got.Questions), normQuestions(m.Questions)) {
			t.Fatalf("questions mismatch: %+v vs %+v", got.Questions, m.Questions)
		}
		if len(got.Answers) != len(m.Answers) || len(got.Authority) != len(m.Authority) {
			t.Fatalf("section sizes differ")
		}
		for i := range m.Answers {
			if got.Answers[i].Name != m.Answers[i].Name || !bytes.Equal(got.Answers[i].RData, m.Answers[i].RData) {
				t.Fatalf("answer %d mismatch", i)
			}
		}
	}
}

func mustNameRData(t *testing.T, name string) []byte {
	t.Helper()
	rd, err := NameRData(name)
	if err != nil {
		t.Fatal(err)
	}
	return rd
}

func normQuestions(qs []Question) []Question {
	out := make([]Question, len(qs))
	copy(out, qs)
	return out
}

func TestDecodeNeverPanics(t *testing.T) {
	// Fuzz-ish: random bytes must produce an error or a message, never a
	// panic or hang.
	prop := func(b []byte) bool {
		_, _ = Decode(b)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	// And mutated valid messages.
	q := NewQuery(1, "www.example.com", TypeA)
	enc, _ := q.Encode()
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 2000; i++ {
		mut := append([]byte{}, enc...)
		for k := 0; k < 1+rng.Intn(4); k++ {
			mut[rng.Intn(len(mut))] = byte(rng.Intn(256))
		}
		_, _ = Decode(mut)
	}
}

func TestTypeAndRCodeStrings(t *testing.T) {
	if TypeA.String() != "A" || TypeAAAA.String() != "AAAA" || Type(999).String() != "TYPE999" {
		t.Error("type strings wrong")
	}
	if RCodeNXDomain.String() != "NXDOMAIN" || RCode(14).String() != "RCODE14" {
		t.Error("rcode strings wrong")
	}
}

func TestEDNSRoundTrip(t *testing.T) {
	q := NewQuery(5, "com", TypeNS)
	if _, _, ok := q.EDNS(); ok {
		t.Fatal("fresh query claims EDNS")
	}
	if q.MaxUDPPayload() != DefaultUDPSize {
		t.Fatalf("default payload = %d", q.MaxUDPPayload())
	}
	q.SetEDNS(4096, true)
	size, do, ok := q.EDNS()
	if !ok || size != 4096 || !do {
		t.Fatalf("EDNS = %d,%v,%v", size, do, ok)
	}
	if q.MaxUDPPayload() != 4096 {
		t.Fatalf("payload = %d", q.MaxUDPPayload())
	}
	// Survives the wire.
	b, err := q.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	size, do, ok = back.EDNS()
	if !ok || size != 4096 || !do {
		t.Fatalf("decoded EDNS = %d,%v,%v", size, do, ok)
	}
	// Replacing does not accumulate OPTs.
	q.SetEDNS(1232, false)
	opts := 0
	for _, rr := range q.Additional {
		if rr.Type == TypeOPT {
			opts++
		}
	}
	if opts != 1 {
		t.Fatalf("OPT count = %d", opts)
	}
	size, do, _ = q.EDNS()
	if size != 1232 || do {
		t.Fatalf("replaced EDNS = %d,%v", size, do)
	}
	// Tiny advertised sizes clamp up to 512.
	q.SetEDNS(100, false)
	if size, _, _ := q.EDNS(); size != DefaultUDPSize {
		t.Fatalf("clamped size = %d", size)
	}
}
