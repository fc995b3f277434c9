// Package pcapio provides packet capture I/O for the DITL-style captures:
// a classic pcap file writer/reader (LINKTYPE_RAW, packets begin at the
// IPv4 header) and a codec for IPv4/UDP/TCP+payload packets, with real
// header checksums.
package pcapio

import (
	"errors"
	"fmt"

	"anycastctx/internal/ipaddr"
)

// IP protocol numbers.
const (
	ProtoTCP = 6
	ProtoUDP = 17
)

// Decode errors.
var (
	ErrShortPacket = errors.New("pcapio: packet too short")
	ErrBadVersion  = errors.New("pcapio: not an IPv4 packet")
	ErrBadChecksum = errors.New("pcapio: bad IPv4 header checksum")
	ErrBadLength   = errors.New("pcapio: inconsistent length fields")
)

// IPv4 is the network layer.
type IPv4 struct {
	Src, Dst ipaddr.Addr
	Protocol uint8
	TTL      uint8
	ID       uint16
}

// UDP is the UDP transport layer.
type UDP struct {
	SrcPort, DstPort uint16
}

// TCP flag bits.
const (
	FlagSYN = 1 << 1
	FlagPSH = 1 << 3
	FlagACK = 1 << 4
)

// TCP is the TCP transport layer (the subset the captures need: ports,
// sequence numbers, and flags, so handshake RTT estimation has real
// SYN/SYN-ACK/ACK exchanges to look at).
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
}

// Packet is a decoded packet: the IPv4 header, at most one transport
// header (UDP and TCP are nil for any other protocol), and the bytes
// after them. Payload aliases the buffer passed to DecodePacket, which
// is safe for records from Reader.Next: it allocates each record's data.
type Packet struct {
	IPv4    IPv4
	UDP     *UDP
	TCP     *TCP
	Payload []byte
}

// checksum computes the Internet checksum over b with an initial sum.
func checksum(b []byte, initial uint32) uint16 {
	sum := initial
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(b[i])<<8 | uint32(b[i+1])
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum > 0xFFFF {
		sum = (sum & 0xFFFF) + (sum >> 16)
	}
	return ^uint16(sum)
}

// pseudoHeaderSum folds the IPv4 pseudo-header for transport checksums.
func pseudoHeaderSum(src, dst ipaddr.Addr, proto uint8, length int) uint32 {
	var sum uint32
	s, d := uint32(src), uint32(dst)
	sum += s >> 16
	sum += s & 0xFFFF
	sum += d >> 16
	sum += d & 0xFFFF
	sum += uint32(proto)
	sum += uint32(length)
	return sum
}

// serializeBuf returns a zeroed length-total slice, reusing buf's storage
// when its capacity suffices. Zeroing matters: the header writers below
// leave reserved fields (TOS, fragment, checksum-before-fill) untouched
// and the checksums sum over them, so stale bytes would corrupt output.
func serializeBuf(buf []byte, total int) []byte {
	var b []byte
	if cap(buf) >= total {
		b = buf[:total]
		clear(b)
	} else {
		b = make([]byte, total)
	}
	return b
}

// SerializeUDPInto builds a full IPv4+UDP packet with valid checksums,
// writing into buf's storage (ignoring its contents) when capacity
// allows, so hot emitters can reuse one buffer per packet instead of
// allocating. The returned slice may alias buf; a nil buf allocates.
func SerializeUDPInto(buf []byte, ip *IPv4, udp *UDP, payload []byte) ([]byte, error) {
	udpLen := 8 + len(payload)
	total := 20 + udpLen
	if total > 0xFFFF {
		return nil, fmt.Errorf("pcapio: packet too large (%d bytes)", total)
	}
	b := serializeBuf(buf, total)
	writeIPv4Header(b, ip, ProtoUDP, total)

	u := b[20:]
	be16(u[0:], udp.SrcPort)
	be16(u[2:], udp.DstPort)
	be16(u[4:], uint16(udpLen))
	copy(u[8:], payload)
	ck := checksum(u[:udpLen], pseudoHeaderSum(ip.Src, ip.Dst, ProtoUDP, udpLen))
	if ck == 0 {
		ck = 0xFFFF // RFC 768: transmitted as all ones
	}
	be16(u[6:], ck)
	return b, nil
}

// SerializeTCPInto builds a full IPv4+TCP packet (20-byte TCP header, no
// options) with valid checksums, writing into buf's storage (ignoring its
// contents) when capacity allows. The returned slice may alias buf; a nil
// buf allocates.
func SerializeTCPInto(buf []byte, ip *IPv4, tcp *TCP, payload []byte) ([]byte, error) {
	tcpLen := 20 + len(payload)
	total := 20 + tcpLen
	if total > 0xFFFF {
		return nil, fmt.Errorf("pcapio: packet too large (%d bytes)", total)
	}
	b := serializeBuf(buf, total)
	writeIPv4Header(b, ip, ProtoTCP, total)

	s := b[20:]
	be16(s[0:], tcp.SrcPort)
	be16(s[2:], tcp.DstPort)
	be32(s[4:], tcp.Seq)
	be32(s[8:], tcp.Ack)
	s[12] = 5 << 4 // data offset: 5 words
	s[13] = tcp.Flags
	be16(s[14:], 65535) // window
	copy(s[20:], payload)
	ck := checksum(s[:tcpLen], pseudoHeaderSum(ip.Src, ip.Dst, ProtoTCP, tcpLen))
	be16(s[16:], ck)
	return b, nil
}

func writeIPv4Header(b []byte, ip *IPv4, proto uint8, total int) {
	b[0] = 0x45 // version 4, IHL 5
	be16(b[2:], uint16(total))
	be16(b[4:], ip.ID)
	ttl := ip.TTL
	if ttl == 0 {
		ttl = 64
	}
	b[8] = ttl
	b[9] = proto
	be32(b[12:], uint32(ip.Src))
	be32(b[16:], uint32(ip.Dst))
	be16(b[10:], checksum(b[:20], 0))
}

// DecodePacket parses an IPv4 packet, verifying the IPv4 header
// checksum and length consistency. The packet's Payload aliases data.
func DecodePacket(data []byte) (*Packet, error) {
	if len(data) < 20 {
		return nil, ErrShortPacket
	}
	if data[0]>>4 != 4 {
		return nil, ErrBadVersion
	}
	ihl := int(data[0]&0xF) * 4
	if ihl < 20 || len(data) < ihl {
		return nil, ErrShortPacket
	}
	if checksum(data[:ihl], 0) != 0 {
		return nil, ErrBadChecksum
	}
	total := int(u16(data[2:]))
	if total < ihl || total > len(data) {
		return nil, ErrBadLength
	}
	pkt := &Packet{IPv4: IPv4{
		Src:      ipaddr.Addr(u32(data[12:])),
		Dst:      ipaddr.Addr(u32(data[16:])),
		Protocol: data[9],
		TTL:      data[8],
		ID:       u16(data[4:]),
	}}
	rest := data[ihl:total:total]

	switch pkt.IPv4.Protocol {
	case ProtoUDP:
		if len(rest) < 8 {
			return nil, ErrShortPacket
		}
		udpLen := int(u16(rest[4:]))
		if udpLen < 8 || udpLen > len(rest) {
			return nil, ErrBadLength
		}
		pkt.UDP = &UDP{SrcPort: u16(rest[0:]), DstPort: u16(rest[2:])}
		rest = rest[8:udpLen:udpLen]
	case ProtoTCP:
		if len(rest) < 20 {
			return nil, ErrShortPacket
		}
		off := int(rest[12]>>4) * 4
		if off < 20 || off > len(rest) {
			return nil, ErrBadLength
		}
		pkt.TCP = &TCP{
			SrcPort: u16(rest[0:]),
			DstPort: u16(rest[2:]),
			Seq:     u32(rest[4:]),
			Ack:     u32(rest[8:]),
			Flags:   rest[13],
		}
		rest = rest[off:]
	}
	// An unknown transport keeps its raw bytes as the payload.
	if len(rest) > 0 {
		pkt.Payload = rest
	}
	return pkt, nil
}

func be16(b []byte, v uint16) { b[0] = byte(v >> 8); b[1] = byte(v) }
func be32(b []byte, v uint32) {
	b[0] = byte(v >> 24)
	b[1] = byte(v >> 16)
	b[2] = byte(v >> 8)
	b[3] = byte(v)
}
func u16(b []byte) uint16 { return uint16(b[0])<<8 | uint16(b[1]) }
func u32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}
