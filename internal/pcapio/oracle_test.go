package pcapio

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"
)

// SerializeUDP builds a full IPv4+UDP packet into fresh storage: the
// allocating oracle the SerializeUDPInto buffer-reuse tests compare
// against.
func SerializeUDP(ip *IPv4, udp *UDP, payload []byte) ([]byte, error) {
	return SerializeUDPInto(nil, ip, udp, payload)
}

// SerializeTCP is SerializeUDP's TCP counterpart.
func SerializeTCP(ip *IPv4, tcp *TCP, payload []byte) ([]byte, error) {
	return SerializeTCPInto(nil, ip, tcp, payload)
}

// WritePacket appends one packet with the given capture timestamp,
// framing the record header itself rather than through AppendRecord, so
// the tests read back captures written by an independent framer.
func (w *Writer) WritePacket(ts time.Time, data []byte) error {
	if w.closed {
		return ErrWriterClosed
	}
	if len(data) > maxSnapLen {
		return fmt.Errorf("pcapio: packet length %d exceeds snaplen", len(data))
	}
	sec := ts.Unix()
	if sec < 0 || sec > math.MaxUint32 {
		return fmt.Errorf("%w: %v", ErrTimeRange, ts)
	}
	var hdr [recordHdrLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(sec))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(ts.Nanosecond()/1000))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(data)))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(data)))
	if _, err := w.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("pcapio: writing record header: %w", err)
	}
	if _, err := w.w.Write(data); err != nil {
		return fmt.Errorf("pcapio: writing record data: %w", err)
	}
	return nil
}
