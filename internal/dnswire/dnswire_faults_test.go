package dnswire

import (
	"errors"
	"runtime"
	"strings"
	"testing"
)

// TestDecodeCountLieNoAmplification pins the fix for the allocation
// amplification the decode fuzzer found: a 12-byte header claiming 65535
// records per section forced ~4 MB of pre-allocation per call before the
// first truncation error. The capped decoder must both reject the
// message and stay near-free on allocation.
func TestDecodeCountLieNoAmplification(t *testing.T) {
	lie := make([]byte, 12)
	lie[6], lie[7] = 0xFF, 0xFF // ANCOUNT = 65535
	lie[8], lie[9] = 0xFF, 0xFF // NSCOUNT = 65535
	lie[10], lie[11] = 0xFF, 0xFF
	if _, err := Decode(lie); !errors.Is(err, ErrTruncatedMessage) {
		t.Fatalf("err = %v, want ErrTruncatedMessage", err)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		_, _ = Decode(lie)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 10<<20 {
		t.Errorf("100 decodes of a count-lying header allocated %d bytes", grew)
	}
}

func TestDecodePartialKeepsIntactSections(t *testing.T) {
	m := NewQuery(7, "example.com", TypeA)
	m.Header.Response = true
	m.Answers = []RR{
		{Name: "example.com", Type: TypeA, Class: ClassIN, TTL: 60, RData: []byte{192, 0, 2, 1}},
		{Name: "example.com", Type: TypeA, Class: ClassIN, TTL: 60, RData: []byte{192, 0, 2, 2}},
	}
	enc, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	cut := enc[:len(enc)-2] // damage the tail of the second answer

	if got, err := Decode(cut); err == nil || got != nil {
		t.Fatalf("Decode(cut) = %v, %v; want nil message and error", got, err)
	}
	part, err := decodeMessage(cut)
	if err == nil {
		t.Fatal("decodeMessage(cut): no error")
	}
	if part == nil {
		t.Fatal("decodeMessage(cut): nil message")
	}
	if part.Header.ID != 7 || !part.Header.Response {
		t.Errorf("partial header = %+v", part.Header)
	}
	if len(part.Questions) != 1 || part.Questions[0].Name != "example.com" {
		t.Errorf("partial questions = %+v", part.Questions)
	}
	if len(part.Answers) != 1 || string(part.Answers[0].RData) != string([]byte{192, 0, 2, 1}) {
		t.Errorf("partial answers = %+v", part.Answers)
	}

	// A bare zero-count header round-trips through decodeMessage.
	hdr := make([]byte, 12)
	hdr[1] = 7
	if part, err := decodeMessage(hdr); err != nil || part == nil || part.Header.ID != 7 {
		t.Errorf("decodeMessage(header) = %v, %v", part, err)
	}
	if part, err := decodeMessage(enc[:5]); part != nil || err == nil {
		t.Errorf("decodeMessage(5 bytes) = %v, %v", part, err)
	}
}

// TestDecodePointerChainDepthLimited builds a 34-hop backward pointer
// chain: strictly-backward pointers alone cannot loop, but an
// artificially deep chain must still hit the hop limit rather than walk
// arbitrarily long chains on every name.
func TestDecodePointerChainDepthLimited(t *testing.T) {
	b := make([]byte, 12)
	b[6], b[7] = 0, 2 // ANCOUNT = 2
	// Answer 1's RData carries the chain: the bytes are opaque to its own
	// parse, and answer 2's name jumps into them.
	b = append(b, 0)          // answer 1 name: root
	b = append(b, 0, 1, 0, 1) // type/class
	b = append(b, 0, 0, 0, 0) // TTL
	b = append(b, 0, 70)      // RDLENGTH
	rdata := make([]byte, 70)
	// abs offset 23: terminal root byte; abs 24+2i: pointer to 22+2i
	// (the previous pair — or, for the first, the terminal byte).
	for i := 0; i < 34; i++ {
		p := 22 + 2*i
		if i == 0 {
			p = 23
		}
		rdata[1+2*i] = 0xC0 | byte(p>>8)
		rdata[2+2*i] = byte(p)
	}
	b = append(b, rdata...)
	last := 24 + 2*33 // abs offset of the chain's deepest pointer
	b = append(b, 0xC0|byte(last>>8), byte(last))
	b = append(b, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0) // type/class/TTL/RDLENGTH=0
	if _, err := Decode(b); !errors.Is(err, ErrBadPointer) {
		t.Errorf("34-hop chain err = %v, want ErrBadPointer", err)
	}
}

// TestCompressedOversizedNameRejected pins the encode/decode asymmetry
// the round-trip fuzzer caught: compression let AppendName emit a
// pointer for an oversized name before the length check at the end of
// the label loop could run, producing wire bytes whose expansion the
// decoder rejects.
func TestCompressedOversizedNameRejected(t *testing.T) {
	base := strings.TrimSuffix(strings.Repeat("abcdefghi.", 25), ".") // 249 chars, valid
	table := map[string]int{}
	b, err := AppendName(nil, base, table)
	if err != nil {
		t.Fatal(err)
	}
	long := strings.Repeat("z", 50) + "." + base // 300 chars
	if _, err := AppendName(b, long, table); !errors.Is(err, ErrNameTooLong) {
		t.Errorf("compressed oversized name err = %v, want ErrNameTooLong", err)
	}
}

func TestEncodeRejectsOversizedSection(t *testing.T) {
	m := NewQuery(1, "x", TypeA)
	m.Questions = make([]Question, 0x10000)
	for i := range m.Questions {
		m.Questions[i] = Question{Name: "x", Type: TypeA, Class: ClassIN}
	}
	if _, err := m.Encode(); err == nil {
		t.Error("65536-entry section accepted")
	}
}
