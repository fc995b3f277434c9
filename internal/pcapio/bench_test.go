package pcapio

import (
	"bytes"
	"io"
	"testing"
	"time"

	"anycastctx/internal/dnswire"
)

func benchPacket(b *testing.B) []byte {
	b.Helper()
	q := dnswire.NewQuery(77, "www.example.com", dnswire.TypeA)
	payload, err := q.Encode()
	if err != nil {
		b.Fatal(err)
	}
	pkt, err := SerializeUDP(&IPv4{Src: 0x01020304, Dst: 0x05060708}, &UDP{SrcPort: 4096, DstPort: 53}, payload)
	if err != nil {
		b.Fatal(err)
	}
	return pkt
}

// BenchmarkDecodePacket measures the packet decode path.
func BenchmarkDecodePacket(b *testing.B) {
	pkt := benchPacket(b)
	b.SetBytes(int64(len(pkt)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodePacket(pkt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSerializeUDP measures packet construction with checksums.
func BenchmarkSerializeUDP(b *testing.B) {
	payload := make([]byte, 64)
	b.SetBytes(int64(20 + 8 + len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SerializeUDP(&IPv4{Src: 1, Dst: 2}, &UDP{SrcPort: 1, DstPort: 53}, payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPcapWrite measures capture-file write throughput.
func BenchmarkPcapWrite(b *testing.B) {
	pkt := benchPacket(b)
	w, err := NewWriter(io.Discard)
	if err != nil {
		b.Fatal(err)
	}
	ts := time.Unix(1523318400, 0)
	b.SetBytes(int64(len(pkt) + recordHdrLen))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.WritePacket(ts, pkt); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPcapRead measures capture-file read+decode throughput.
func BenchmarkPcapRead(b *testing.B) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		b.Fatal(err)
	}
	pkt := benchPacket(b)
	const n = 1000
	for i := 0; i < n; i++ {
		if err := w.WritePacket(time.Unix(int64(i), 0), pkt); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		count := 0
		if err := r.ForEach(func(rec Record) error {
			if _, err := DecodePacket(rec.Data); err != nil {
				return err
			}
			count++
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		if count != n {
			b.Fatalf("count = %d", count)
		}
	}
}
