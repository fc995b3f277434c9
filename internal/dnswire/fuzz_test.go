package dnswire

import (
	"strings"
	"testing"
)

// FuzzDecode pins the decoder against arbitrary wire bytes: it must
// never panic, and anything it accepts must survive re-encoding. Seed
// corpus under testdata/fuzz/FuzzDecode.
func FuzzDecode(f *testing.F) {
	q := NewQuery(99, "example.com", TypeA)
	if enc, err := q.Encode(); err == nil {
		f.Add(enc)
	}
	resp := NewQuery(100, "net", TypeNS)
	resp.Header.Response = true
	resp.Answers = []RR{{Name: "net", Type: TypeNS, Class: ClassIN, TTL: 172800, RData: []byte{1, 'a', 0}}}
	if enc, err := resp.Encode(); err == nil {
		f.Add(enc)
	}
	f.Add([]byte{})
	lie := make([]byte, 12)
	lie[6], lie[7] = 0xFF, 0xFF
	f.Add(lie)

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil && m != nil {
			t.Fatal("Decode returned both a message and an error")
		}
		if err == nil {
			// Re-encoding may legitimately fail (a wire label can contain
			// a literal '.', which re-splits differently; compression can
			// make an oversized name fit on the wire), but when it
			// succeeds the result must decode again.
			if enc, encErr := m.Encode(); encErr == nil {
				if _, err2 := Decode(enc); err2 != nil {
					t.Fatalf("re-encoded message does not re-decode: %v", err2)
				}
			}
		}
		// The partial decoder sees the same bytes and must stay consistent:
		// a full decode implies a clean partial decode.
		pm, perr := decodeMessage(data)
		if err == nil && perr != nil {
			t.Fatalf("Decode ok but decodeMessage failed: %v", perr)
		}
		if perr != nil && pm == nil && len(data) >= 12 {
			t.Fatal("decodeMessage dropped the header of a 12-byte-plus message")
		}
	})
}

// FuzzAppendName pins the name encoder/decoder round trip: any name
// AppendName accepts must decode back to its normalized form. Seed
// corpus under testdata/fuzz/FuzzAppendName.
func FuzzAppendName(f *testing.F) {
	for _, s := range []string{"", ".", "com", "example.com", "www.example.com.",
		strings.Repeat("a", 63) + ".org"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, name string) {
		enc, err := AppendName(nil, name, nil)
		if err != nil {
			return
		}
		got, end, err := decodeName(enc, 0)
		if err != nil {
			t.Fatalf("AppendName(%q) accepted but decodeName failed: %v", name, err)
		}
		if end != len(enc) {
			t.Fatalf("decodeName consumed %d of %d bytes", end, len(enc))
		}
		want := strings.TrimSuffix(name, ".")
		if want == "" {
			want = "."
		}
		if got != want {
			t.Fatalf("round trip: %q -> %q, want %q", name, got, want)
		}
	})
}
