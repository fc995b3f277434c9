// Package dnswire implements the subset of the DNS wire format (RFC 1035)
// that the DITL-style captures carry: headers, questions, and resource
// records, with name compression on both encode and decode paths.
//
// The simulator writes real DNS payloads into its pcap captures so the
// analysis pipeline parses traffic the same way the paper's tooling parses
// DITL: by decoding packets, not by reading simulator state.
package dnswire

import (
	"errors"
	"fmt"
	"strings"

	"anycastctx/internal/obs"
)

// Decode-path observability: the analysis pipeline treats malformed
// messages as skip-and-count events, so the funnel must be visible.
var (
	obsDecoded      = obs.NewCounter("dnswire.messages_decoded")
	obsDecodeErrors = obs.NewCounter("dnswire.decode_errors")
)

// Type is a DNS RR/query type.
type Type uint16

// Query and record types used by the simulator.
const (
	TypeA    Type = 1
	TypeNS   Type = 2
	TypeSOA  Type = 6
	TypePTR  Type = 12
	TypeTXT  Type = 16
	TypeAAAA Type = 28
	TypeOPT  Type = 41
	TypeANY  Type = 255
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case TypeA:
		return "A"
	case TypeNS:
		return "NS"
	case TypeSOA:
		return "SOA"
	case TypePTR:
		return "PTR"
	case TypeTXT:
		return "TXT"
	case TypeAAAA:
		return "AAAA"
	case TypeOPT:
		return "OPT"
	case TypeANY:
		return "ANY"
	default:
		return fmt.Sprintf("TYPE%d", uint16(t))
	}
}

// Class is a DNS class; only IN is used.
type Class uint16

// ClassIN is the Internet class.
const ClassIN Class = 1

// RCode is a DNS response code.
type RCode uint8

// Response codes used by the simulator.
const (
	RCodeNoError  RCode = 0
	RCodeFormErr  RCode = 1
	RCodeServFail RCode = 2
	RCodeNXDomain RCode = 3
	RCodeRefused  RCode = 5
)

// String implements fmt.Stringer.
func (r RCode) String() string {
	switch r {
	case RCodeNoError:
		return "NOERROR"
	case RCodeFormErr:
		return "FORMERR"
	case RCodeServFail:
		return "SERVFAIL"
	case RCodeNXDomain:
		return "NXDOMAIN"
	case RCodeRefused:
		return "REFUSED"
	default:
		return fmt.Sprintf("RCODE%d", uint8(r))
	}
}

// Header is the fixed 12-byte DNS message header, decomposed.
type Header struct {
	ID                 uint16
	Response           bool // QR
	Opcode             uint8
	Authoritative      bool // AA
	Truncated          bool // TC
	RecursionDesired   bool // RD
	RecursionAvailable bool // RA
	RCode              RCode
}

// Question is one entry of the question section.
type Question struct {
	Name  string
	Type  Type
	Class Class
}

// RR is a resource record. RData holds the raw record data; for NS/PTR
// records whose RData is a domain name, use the Name helpers.
type RR struct {
	Name  string
	Type  Type
	Class Class
	TTL   uint32
	RData []byte
}

// Message is a full DNS message.
type Message struct {
	Header     Header
	Questions  []Question
	Answers    []RR
	Authority  []RR
	Additional []RR
}

// Errors returned by the decoder.
var (
	ErrTruncatedMessage = errors.New("dnswire: message truncated")
	ErrBadPointer       = errors.New("dnswire: bad compression pointer")
	ErrNameTooLong      = errors.New("dnswire: name exceeds 255 octets")
	ErrLabelTooLong     = errors.New("dnswire: label exceeds 63 octets")
)

// maxNameLen is the RFC 1035 limit on encoded name length.
const maxNameLen = 255

// AppendName encodes a domain name (dot-separated, with or without a
// trailing dot) into wire format, using compression against previously
// encoded names recorded in table (offset by name suffix). Pass a nil
// table to disable compression.
func AppendName(b []byte, name string, table map[string]int) ([]byte, error) {
	name = strings.TrimSuffix(name, ".")
	if name == "" {
		return append(b, 0), nil
	}
	// Enforce the 255-octet limit on the uncompressed form up front
	// (uncompressed wire length = len(name)+2). Checking only at the end
	// of the label loop let a pointer-compressed encoding of an oversized
	// name slip out — wire bytes the decoder then rejects with
	// ErrNameTooLong, an encode/decode asymmetry the round-trip fuzzer
	// caught.
	if len(name)+2 > maxNameLen {
		return nil, ErrNameTooLong
	}
	labels := strings.Split(name, ".")
	for i := range labels {
		suffix := strings.Join(labels[i:], ".")
		if table != nil {
			if off, ok := table[suffix]; ok && off < 0x4000 {
				b = append(b, 0xC0|byte(off>>8), byte(off))
				return b, nil
			}
			if len(b) < 0x4000 {
				table[suffix] = len(b)
			}
		}
		l := labels[i]
		if len(l) == 0 {
			return nil, fmt.Errorf("dnswire: empty label in %q", name)
		}
		if len(l) > 63 {
			return nil, ErrLabelTooLong
		}
		b = append(b, byte(len(l)))
		b = append(b, l...)
	}
	return append(b, 0), nil
}

// decodeName reads a possibly compressed name starting at off in msg.
// It returns the name and the offset just past the name's in-place bytes.
func decodeName(msg []byte, off int) (string, int, error) {
	var sb strings.Builder
	jumped := false
	end := off
	hops := 0
	for {
		if off >= len(msg) {
			return "", 0, ErrTruncatedMessage
		}
		c := msg[off]
		switch {
		case c == 0:
			if !jumped {
				end = off + 1
			}
			name := sb.String()
			if name == "" {
				name = "."
			}
			return name, end, nil
		case c&0xC0 == 0xC0:
			if off+1 >= len(msg) {
				return "", 0, ErrTruncatedMessage
			}
			ptr := int(c&0x3F)<<8 | int(msg[off+1])
			if !jumped {
				end = off + 2
			}
			if ptr >= off {
				return "", 0, ErrBadPointer // pointers must point backward
			}
			off = ptr
			jumped = true
			hops++
			if hops > 32 {
				return "", 0, ErrBadPointer
			}
		case c&0xC0 != 0:
			return "", 0, fmt.Errorf("dnswire: reserved label type 0x%02x", c&0xC0)
		default:
			l := int(c)
			if off+1+l > len(msg) {
				return "", 0, ErrTruncatedMessage
			}
			if sb.Len() > 0 {
				sb.WriteByte('.')
			}
			sb.Write(msg[off+1 : off+1+l])
			if sb.Len() > maxNameLen {
				return "", 0, ErrNameTooLong
			}
			off += 1 + l
			if !jumped {
				end = off
			}
		}
	}
}

func appendU16(b []byte, v uint16) []byte { return append(b, byte(v>>8), byte(v)) }
func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func readU16(b []byte, off int) (uint16, error) {
	if off+2 > len(b) {
		return 0, ErrTruncatedMessage
	}
	return uint16(b[off])<<8 | uint16(b[off+1]), nil
}

func readU32(b []byte, off int) (uint32, error) {
	if off+4 > len(b) {
		return 0, ErrTruncatedMessage
	}
	return uint32(b[off])<<24 | uint32(b[off+1])<<16 | uint32(b[off+2])<<8 | uint32(b[off+3]), nil
}

// flags packs the header flag word.
func (h Header) flags() uint16 {
	var f uint16
	if h.Response {
		f |= 1 << 15
	}
	f |= uint16(h.Opcode&0xF) << 11
	if h.Authoritative {
		f |= 1 << 10
	}
	if h.Truncated {
		f |= 1 << 9
	}
	if h.RecursionDesired {
		f |= 1 << 8
	}
	if h.RecursionAvailable {
		f |= 1 << 7
	}
	f |= uint16(h.RCode) & 0xF
	return f
}

func headerFromFlags(id, f uint16) Header {
	return Header{
		ID:                 id,
		Response:           f&(1<<15) != 0,
		Opcode:             uint8(f >> 11 & 0xF),
		Authoritative:      f&(1<<10) != 0,
		Truncated:          f&(1<<9) != 0,
		RecursionDesired:   f&(1<<8) != 0,
		RecursionAvailable: f&(1<<7) != 0,
		RCode:              RCode(f & 0xF),
	}
}

// Encode serializes the message with name compression.
func (m *Message) Encode() ([]byte, error) {
	return m.EncodeInto(nil)
}

// EncodeInto encodes the message into buf's storage (ignoring its
// contents), growing only when capacity runs out — hot emitters reuse one
// buffer across messages. The encoding must start at offset 0 of the
// returned slice because name-compression pointers are message-relative,
// which is why this is an "into" and not an "append" API. The returned
// slice may alias buf.
func (m *Message) EncodeInto(buf []byte) ([]byte, error) {
	// The header stores section counts in 16 bits; larger sections would
	// silently truncate the count while every record is still written,
	// producing wire bytes whose counts disagree with their contents.
	for _, n := range []int{len(m.Questions), len(m.Answers), len(m.Authority), len(m.Additional)} {
		if n > 0xFFFF {
			return nil, fmt.Errorf("dnswire: section of %d entries exceeds 16-bit count", n)
		}
	}
	b := buf[:0]
	if cap(b) < 64 {
		b = make([]byte, 0, 64)
	}
	b = appendU16(b, m.Header.ID)
	b = appendU16(b, m.Header.flags())
	b = appendU16(b, uint16(len(m.Questions)))
	b = appendU16(b, uint16(len(m.Answers)))
	b = appendU16(b, uint16(len(m.Authority)))
	b = appendU16(b, uint16(len(m.Additional)))

	table := map[string]int{}
	var err error
	for _, q := range m.Questions {
		if b, err = AppendName(b, q.Name, table); err != nil {
			return nil, err
		}
		b = appendU16(b, uint16(q.Type))
		b = appendU16(b, uint16(q.Class))
	}
	for _, sec := range [][]RR{m.Answers, m.Authority, m.Additional} {
		for _, rr := range sec {
			if b, err = AppendName(b, rr.Name, table); err != nil {
				return nil, err
			}
			b = appendU16(b, uint16(rr.Type))
			b = appendU16(b, uint16(rr.Class))
			b = appendU32(b, rr.TTL)
			if len(rr.RData) > 0xFFFF {
				return nil, fmt.Errorf("dnswire: rdata too long (%d)", len(rr.RData))
			}
			b = appendU16(b, uint16(len(rr.RData)))
			b = append(b, rr.RData...)
		}
	}
	return b, nil
}

// Decode parses a wire-format DNS message.
func Decode(b []byte) (*Message, error) {
	m, err := decodeMessage(b)
	if err != nil {
		obsDecodeErrors.Inc()
		return nil, err
	}
	obsDecoded.Inc()
	return m, nil
}

// decodeMessage parses as much of a wire-format DNS message as is intact,
// returning both the partial message and the first error encountered. The
// message is nil only when even the 12-byte header is unreadable.
func decodeMessage(b []byte) (*Message, error) {
	if len(b) < 12 {
		return nil, ErrTruncatedMessage
	}
	id, _ := readU16(b, 0)
	fl, _ := readU16(b, 2)
	qd, _ := readU16(b, 4)
	an, _ := readU16(b, 6)
	ns, _ := readU16(b, 8)
	ar, _ := readU16(b, 10)

	m := &Message{Header: headerFromFlags(id, fl)}
	off := 12
	for i := 0; i < int(qd); i++ {
		name, next, err := decodeName(b, off)
		if err != nil {
			return m, err
		}
		off = next
		t, err := readU16(b, off)
		if err != nil {
			return m, err
		}
		c, err := readU16(b, off+2)
		if err != nil {
			return m, err
		}
		off += 4
		m.Questions = append(m.Questions, Question{Name: name, Type: Type(t), Class: Class(c)})
	}
	var err error
	if m.Answers, off, err = decodeRRs(b, off, int(an)); err != nil {
		return m, err
	}
	if m.Authority, off, err = decodeRRs(b, off, int(ns)); err != nil {
		return m, err
	}
	if m.Additional, off, err = decodeRRs(b, off, int(ar)); err != nil {
		return m, err
	}
	return m, nil
}

// decodeRRs parses n resource records starting at off. On error it
// returns the records decoded so far (for decodeMessage) along with the
// error; Decode discards them.
func decodeRRs(b []byte, off, n int) ([]RR, int, error) {
	if n == 0 {
		return nil, off, nil
	}
	// Cap the pre-allocation by what the remaining bytes could possibly
	// hold (≥11 bytes per record: 1-byte name, type, class, TTL, rdlen).
	// A 20-byte message claiming 65535 records per section otherwise
	// forced ~4 MB of allocation before the first truncation error — an
	// amplification the decode fuzzer flagged. The claimed count is still
	// parsed in full; a lying count runs out of bytes and errors below.
	capHint := n
	if max := (len(b)-off)/11 + 1; capHint > max {
		capHint = max
	}
	rrs := make([]RR, 0, capHint)
	for i := 0; i < n; i++ {
		name, next, err := decodeName(b, off)
		if err != nil {
			return rrs, 0, err
		}
		off = next
		t, err := readU16(b, off)
		if err != nil {
			return rrs, 0, err
		}
		c, err := readU16(b, off+2)
		if err != nil {
			return rrs, 0, err
		}
		ttl, err := readU32(b, off+4)
		if err != nil {
			return rrs, 0, err
		}
		rdlen, err := readU16(b, off+8)
		if err != nil {
			return rrs, 0, err
		}
		off += 10
		if off+int(rdlen) > len(b) {
			return rrs, 0, ErrTruncatedMessage
		}
		rd := make([]byte, rdlen)
		copy(rd, b[off:off+int(rdlen)])
		off += int(rdlen)
		rrs = append(rrs, RR{Name: name, Type: Type(t), Class: Class(c), TTL: ttl, RData: rd})
	}
	return rrs, off, nil
}

// NewQuery builds a standard recursive query for (name, type).
func NewQuery(id uint16, name string, t Type) *Message {
	return &Message{
		Header:    Header{ID: id, RecursionDesired: true},
		Questions: []Question{{Name: name, Type: t, Class: ClassIN}},
	}
}

// NewResponse builds a response echoing q's ID and question.
func NewResponse(q *Message, rcode RCode, answers []RR) *Message {
	m := &Message{
		Header: Header{
			ID:               q.Header.ID,
			Response:         true,
			Authoritative:    true,
			RecursionDesired: q.Header.RecursionDesired,
			RCode:            rcode,
		},
		Answers: answers,
	}
	m.Questions = append(m.Questions, q.Questions...)
	return m
}

// ARData encodes an IPv4 address as A-record RData.
func ARData(a, b, c, d byte) []byte { return []byte{a, b, c, d} }

// NameRData encodes a domain name as uncompressed RData (for NS/PTR).
func NameRData(name string) ([]byte, error) {
	return AppendName(nil, name, nil)
}

// EDNS constants (RFC 6891).
const (
	// DefaultUDPSize is the classic 512-byte DNS/UDP payload limit that
	// applies without EDNS.
	DefaultUDPSize = 512
	ednsDOBit      = 0x8000
)

// SetEDNS appends an OPT pseudo-record advertising the given UDP payload
// size (and DNSSEC-OK when do is set), replacing any existing OPT.
func (m *Message) SetEDNS(udpSize uint16, do bool) {
	kept := m.Additional[:0]
	for _, rr := range m.Additional {
		if rr.Type != TypeOPT {
			kept = append(kept, rr)
		}
	}
	m.Additional = kept
	var ttl uint32
	if do {
		ttl |= ednsDOBit
	}
	m.Additional = append(m.Additional, RR{
		Name:  ".",
		Type:  TypeOPT,
		Class: Class(udpSize),
		TTL:   ttl,
	})
}

// EDNS reports the message's advertised UDP payload size and DNSSEC-OK
// flag; ok is false when the message carries no OPT record.
func (m *Message) EDNS() (udpSize uint16, do bool, ok bool) {
	for _, rr := range m.Additional {
		if rr.Type == TypeOPT {
			size := uint16(rr.Class)
			if size < DefaultUDPSize {
				size = DefaultUDPSize
			}
			return size, rr.TTL&ednsDOBit != 0, true
		}
	}
	return 0, false, false
}

// MaxUDPPayload returns the response size the querier can accept over UDP.
func (m *Message) MaxUDPPayload() int {
	if size, _, ok := m.EDNS(); ok {
		return int(size)
	}
	return DefaultUDPSize
}
