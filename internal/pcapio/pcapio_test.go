package pcapio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"anycastctx/internal/dnswire"
	"anycastctx/internal/ipaddr"
)

func mustAddr(t *testing.T, s string) ipaddr.Addr {
	t.Helper()
	ip, err := netip.ParseAddr(s)
	if err != nil || !ip.Is4() {
		t.Fatalf("not an IPv4 address: %q", s)
	}
	b := ip.As4()
	return ipaddr.AddrFrom4(b[0], b[1], b[2], b[3])
}

func TestUDPRoundTrip(t *testing.T) {
	src := mustAddr(t, "192.0.2.10")
	dst := mustAddr(t, "198.41.0.4")
	payload := []byte("hello dns")
	b, err := SerializeUDP(&IPv4{Src: src, Dst: dst, ID: 77}, &UDP{SrcPort: 4096, DstPort: 53}, payload)
	if err != nil {
		t.Fatal(err)
	}
	pkt, err := DecodePacket(b)
	if err != nil {
		t.Fatal(err)
	}
	ip := pkt.IPv4
	if ip.Src != src || ip.Dst != dst || ip.Protocol != ProtoUDP || ip.ID != 77 {
		t.Errorf("ip = %+v", ip)
	}
	udp := pkt.UDP
	if udp == nil || udp.SrcPort != 4096 || udp.DstPort != 53 {
		t.Errorf("udp = %+v", udp)
	}
	if !bytes.Equal(pkt.Payload, payload) {
		t.Errorf("payload = %q", pkt.Payload)
	}
	if pkt.TCP != nil {
		t.Error("unexpected TCP layer")
	}
}

func TestTCPRoundTrip(t *testing.T) {
	src := mustAddr(t, "10.200.1.1") // private ok at this layer
	dst := mustAddr(t, "8.8.8.8")
	b, err := SerializeTCP(&IPv4{Src: src, Dst: dst, TTL: 50},
		&TCP{SrcPort: 33000, DstPort: 53, Seq: 1000, Ack: 2000, Flags: FlagSYN | FlagACK}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pkt, err := DecodePacket(b)
	if err != nil {
		t.Fatal(err)
	}
	tcp := pkt.TCP
	if tcp == nil || tcp.Seq != 1000 || tcp.Ack != 2000 || tcp.Flags != FlagSYN|FlagACK {
		t.Errorf("tcp = %+v", tcp)
	}
	if pkt.IPv4.TTL != 50 {
		t.Errorf("ttl = %d", pkt.IPv4.TTL)
	}
	if pkt.Payload != nil {
		t.Error("expected empty payload")
	}
	// With payload.
	b2, err := SerializeTCP(&IPv4{Src: src, Dst: dst}, &TCP{SrcPort: 1, DstPort: 2, Flags: FlagPSH | FlagACK}, []byte("data"))
	if err != nil {
		t.Fatal(err)
	}
	pkt2, err := DecodePacket(b2)
	if err != nil {
		t.Fatal(err)
	}
	if string(pkt2.Payload) != "data" {
		t.Errorf("payload = %q", pkt2.Payload)
	}
}

func TestDNSInsideUDP(t *testing.T) {
	q := dnswire.NewQuery(55, "com", dnswire.TypeNS)
	dnsBytes, err := q.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := SerializeUDP(&IPv4{Src: 1, Dst: 2}, &UDP{SrcPort: 5353, DstPort: 53}, dnsBytes)
	if err != nil {
		t.Fatal(err)
	}
	pkt, err := DecodePacket(b)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := dnswire.Decode(pkt.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Questions[0].Name != "com" {
		t.Errorf("question = %+v", msg.Questions[0])
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := DecodePacket(nil); !errors.Is(err, ErrShortPacket) {
		t.Errorf("nil err = %v", err)
	}
	if _, err := DecodePacket(make([]byte, 19)); !errors.Is(err, ErrShortPacket) {
		t.Errorf("short err = %v", err)
	}
	b6 := make([]byte, 40)
	b6[0] = 0x60
	if _, err := DecodePacket(b6); !errors.Is(err, ErrBadVersion) {
		t.Errorf("v6 err = %v", err)
	}
	// Corrupt checksum.
	good, err := SerializeUDP(&IPv4{Src: 1, Dst: 2}, &UDP{SrcPort: 1, DstPort: 2}, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte{}, good...)
	bad[12] ^= 0xFF
	if _, err := DecodePacket(bad); !errors.Is(err, ErrBadChecksum) {
		t.Errorf("checksum err = %v", err)
	}
	// Total length beyond buffer.
	bad2 := append([]byte{}, good...)
	bad2[2], bad2[3] = 0xFF, 0xFF
	// Fix checksum for the new length so we reach the length check.
	bad2[10], bad2[11] = 0, 0
	ck := checksum(bad2[:20], 0)
	bad2[10], bad2[11] = byte(ck>>8), byte(ck)
	if _, err := DecodePacket(bad2); !errors.Is(err, ErrBadLength) {
		t.Errorf("length err = %v", err)
	}
}

func TestDecodeNeverPanicsOnFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	good, err := SerializeUDP(&IPv4{Src: 0x01020304, Dst: 0x05060708}, &UDP{SrcPort: 53, DstPort: 53}, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		mut := append([]byte{}, good...)
		for k := 0; k < 1+rng.Intn(6); k++ {
			mut[rng.Intn(len(mut))] = byte(rng.Intn(256))
		}
		_, _ = DecodePacket(mut)
	}
	for i := 0; i < 2000; i++ {
		raw := make([]byte, rng.Intn(100))
		rng.Read(raw)
		_, _ = DecodePacket(raw)
	}
}

func TestUnknownProtocolKeptAsPayload(t *testing.T) {
	// Hand-build an IPv4+ICMP-ish packet.
	b := make([]byte, 24)
	b[0] = 0x45
	be16(b[2:], 24)
	b[8] = 64
	b[9] = 1 // ICMP
	be32(b[12:], 0x01010101)
	be32(b[16:], 0x02020202)
	be16(b[10:], checksum(b[:20], 0))
	copy(b[20:], []byte{8, 0, 0, 0})
	pkt, err := DecodePacket(b)
	if err != nil {
		t.Fatal(err)
	}
	if pkt.UDP != nil || pkt.TCP != nil {
		t.Error("unexpected transport layer")
	}
	if len(pkt.Payload) != 4 {
		t.Errorf("payload len = %d", len(pkt.Payload))
	}
}

func TestPcapRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2018, 4, 10, 0, 0, 0, 0, time.UTC)
	var want []Record
	for i := 0; i < 50; i++ {
		payload := []byte{byte(i)}
		pkt, err := SerializeUDP(&IPv4{Src: ipaddr.Addr(i), Dst: 99}, &UDP{SrcPort: uint16(i), DstPort: 53}, payload)
		if err != nil {
			t.Fatal(err)
		}
		ts := base.Add(time.Duration(i) * 137 * time.Millisecond)
		if err := w.WritePacket(ts, pkt); err != nil {
			t.Fatal(err)
		}
		want = append(want, Record{Time: ts.Truncate(time.Microsecond), Data: pkt})
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if lt := binary.LittleEndian.Uint32(buf.Bytes()[20:]); lt != linkTypeRaw {
		t.Errorf("link type = %d", lt)
	}
	var got []Record
	if err := r.ForEach(func(rec Record) error {
		got = append(got, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("records = %d, want %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Time.Equal(want[i].Time) {
			t.Errorf("record %d time = %v, want %v", i, got[i].Time, want[i].Time)
		}
		if !bytes.Equal(got[i].Data, want[i].Data) {
			t.Errorf("record %d data mismatch", i)
		}
	}
}

func TestPcapReaderErrors(t *testing.T) {
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Error("empty file accepted")
	}
	bad := make([]byte, fileHeaderLen)
	if _, err := NewReader(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
	// Valid header, truncated record.
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WritePacket(time.Now(), []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-2]
	r, err := NewReader(bytes.NewReader(trunc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil {
		t.Error("truncated record accepted")
	}
	// EOF after records.
	r2, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Next(); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestWriterRejectsOversized(t *testing.T) {
	w, err := NewWriter(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WritePacket(time.Now(), make([]byte, maxSnapLen+1)); err == nil {
		t.Error("oversized packet accepted")
	}
}

func TestSerializeRejectsHuge(t *testing.T) {
	if _, err := SerializeUDP(&IPv4{}, &UDP{}, make([]byte, 70000)); err == nil {
		t.Error("oversized UDP accepted")
	}
	if _, err := SerializeTCP(&IPv4{}, &TCP{}, make([]byte, 70000)); err == nil {
		t.Error("oversized TCP accepted")
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example-style check: a header whose checksum field is
	// filled must verify to zero.
	b, err := SerializeUDP(&IPv4{Src: 0x0a0b0c0d, Dst: 0x01020304}, &UDP{SrcPort: 9, DstPort: 10}, []byte("xyz"))
	if err != nil {
		t.Fatal(err)
	}
	if checksum(b[:20], 0) != 0 {
		t.Error("IPv4 checksum does not verify")
	}
	// UDP checksum verifies with pseudo header.
	udpLen := len(b) - 20
	if checksum(b[20:], pseudoHeaderSum(0x0a0b0c0d, 0x01020304, ProtoUDP, udpLen)) != 0 {
		t.Error("UDP checksum does not verify")
	}
}
