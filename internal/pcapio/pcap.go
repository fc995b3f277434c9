package pcapio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"anycastctx/internal/obs"
)

// pcap file constants (classic libpcap format).
const (
	magicMicros   = 0xa1b2c3d4
	versionMajor  = 2
	versionMinor  = 4
	linkTypeRaw   = 101 // packets begin directly with the IP header
	maxSnapLen    = 262144
	recordHdrLen  = 16
	fileHeaderLen = 24
)

// Reader-side observability: the degradation funnel for capture input.
var (
	obsRecordsRead      = obs.NewCounter("pcapio.records_read")
	obsRecordsTruncated = obs.NewCounter("pcapio.records_truncated")
	obsRecordsDropped   = obs.NewCounter("pcapio.records_dropped")
	obsReaderResyncs    = obs.NewCounter("pcapio.reader_resyncs")
	obsBytesSkipped     = obs.NewCounter("pcapio.bytes_skipped")
)

// Writer errors.
var (
	ErrWriterClosed = errors.New("pcapio: writer is closed")
	ErrTimeRange    = errors.New("pcapio: timestamp outside the 32-bit pcap epoch range")
)

// Writer writes a pcap capture file. Create with NewWriter; call Close
// (or Flush) when done. Writer is not safe for concurrent use.
type Writer struct {
	w      *bufio.Writer
	closed bool
}

// bufwPool recycles the 64 KiB bufio buffers between captures: the
// experiment runner opens one Writer per emitted site capture, and with
// -j parallelism those buffers otherwise accumulate as per-capture
// garbage.
var bufwPool = sync.Pool{New: func() any { return bufio.NewWriterSize(io.Discard, 1<<16) }}

// NewWriter writes the pcap global header to w and returns a Writer.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufwPool.Get().(*bufio.Writer)
	bw.Reset(w)
	var hdr [fileHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], magicMicros)
	binary.LittleEndian.PutUint16(hdr[4:], versionMajor)
	binary.LittleEndian.PutUint16(hdr[6:], versionMinor)
	// thiszone=0, sigfigs=0
	binary.LittleEndian.PutUint32(hdr[16:], maxSnapLen)
	binary.LittleEndian.PutUint32(hdr[20:], linkTypeRaw)
	if _, err := bw.Write(hdr[:]); err != nil {
		bw.Reset(io.Discard)
		bufwPool.Put(bw)
		return nil, fmt.Errorf("pcapio: writing file header: %w", err)
	}
	return &Writer{w: bw}, nil
}

// WriteRaw appends pre-framed record bytes, as produced by
// AppendRecord: the parallel capture emitter frames records into
// per-worker buffers and stitches them through here in deterministic
// unit order.
func (w *Writer) WriteRaw(b []byte) error {
	if w.closed {
		return ErrWriterClosed
	}
	if _, err := w.w.Write(b); err != nil {
		return fmt.Errorf("pcapio: writing raw records: %w", err)
	}
	return nil
}

// AppendRecord appends one framed record (header + data) to buf and
// returns the extended slice; the result can be written through WriteRaw
// after a NewWriter has emitted the file header. The classic pcap record
// header stores seconds as an unsigned 32-bit count from the Unix epoch;
// timestamps outside that range would silently wrap into a corrupt
// header, so they are rejected instead.
func AppendRecord(buf []byte, ts time.Time, data []byte) ([]byte, error) {
	if len(data) > maxSnapLen {
		return buf, fmt.Errorf("pcapio: packet length %d exceeds snaplen", len(data))
	}
	sec := ts.Unix()
	if sec < 0 || sec > math.MaxUint32 {
		return buf, fmt.Errorf("%w: %v", ErrTimeRange, ts)
	}
	var hdr [recordHdrLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(sec))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(ts.Nanosecond()/1000))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(data)))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(data)))
	buf = append(buf, hdr[:]...)
	return append(buf, data...), nil
}

// Flush writes buffered data to the underlying writer.
func (w *Writer) Flush() error {
	if w.closed {
		return ErrWriterClosed
	}
	return w.w.Flush()
}

// Close flushes buffered data and marks the writer unusable, returning
// its buffer to the pool. Closing an already-closed writer is a no-op; it
// does not close the underlying io.Writer.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	err := w.w.Flush()
	w.w.Reset(io.Discard) // drop the reference to the caller's writer
	bufwPool.Put(w.w)
	w.w = nil
	return err
}

// Record is one captured packet.
type Record struct {
	Time time.Time
	Data []byte
	// Truncated reports that the capture stored fewer bytes than were on
	// the wire (included length < original length): Data is incomplete
	// and will generally not decode.
	Truncated bool
	// OrigLen is the original on-the-wire length from the record header.
	OrigLen int
}

// ReaderStats is the per-reader degradation funnel.
type ReaderStats struct {
	// Records is the number of records returned (including truncated).
	Records int
	// Truncated counts returned records with incomplete data.
	Truncated int
	// Dropped counts records abandoned by lenient recovery (bad framing
	// or mid-record EOF).
	Dropped int
	// Resyncs counts times the lenient reader scanned forward to find the
	// next plausible record boundary.
	Resyncs int
	// BytesSkipped is how many bytes recovery discarded.
	BytesSkipped int
}

// Reader reads a pcap capture file written by Writer (or any classic
// little-endian microsecond pcap with a raw-IP link type).
type Reader struct {
	r       *bufio.Reader
	lenient bool
	stats   ReaderStats
}

// NewReader validates the pcap global header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [fileHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("pcapio: reading file header: %w", err)
	}
	if magic := binary.LittleEndian.Uint32(hdr[0:]); magic != magicMicros {
		return nil, fmt.Errorf("pcapio: bad magic 0x%08x", magic)
	}
	return &Reader{r: br}, nil
}

// SetLenient switches the reader into skip-and-count recovery mode:
// malformed record framing and mid-record EOF no longer abort the read.
// Instead the reader drops the damage, counts it (Stats and the
// pcapio.* obs counters), resynchronizes on the next plausible record
// header, and keeps going.
func (r *Reader) SetLenient(v bool) { r.lenient = v }

// Stats returns what this reader has read, recovered, and dropped.
func (r *Reader) Stats() ReaderStats { return r.stats }

// resyncLimit bounds how far lenient recovery scans for a record
// boundary before giving up on the rest of the stream.
const resyncLimit = 1 << 20

// plausibleRecordHeader reports whether hdr could open a record: sane
// included length, sub-second field actually under one second, and a
// timestamp within the years the captures can carry.
func plausibleRecordHeader(hdr []byte) bool {
	sec := binary.LittleEndian.Uint32(hdr[0:])
	usec := binary.LittleEndian.Uint32(hdr[4:])
	incl := binary.LittleEndian.Uint32(hdr[8:])
	const epoch2000, epoch2100 = 946684800, 4102444800
	return incl <= maxSnapLen && usec < 1_000_000 && sec >= epoch2000 && sec < epoch2100
}

// Next returns the next record, or io.EOF at the end of the capture.
//
// In the default strict mode any malformed framing is an error. In
// lenient mode (SetLenient) damage is skipped and counted: an oversized
// length field triggers a bounded forward scan for the next plausible
// record header, and a record cut off by EOF is dropped. Records whose
// header declares more original bytes than were captured are returned
// with Truncated set in both modes.
func (r *Reader) Next() (Record, error) {
	var hdr [recordHdrLen]byte
	if err := r.fill(hdr[:]); err != nil {
		return Record{}, err
	}
	for {
		incl := binary.LittleEndian.Uint32(hdr[8:])
		if incl <= maxSnapLen {
			break
		}
		if !r.lenient {
			return Record{}, fmt.Errorf("pcapio: record length %d exceeds snaplen", incl)
		}
		if err := r.resync(hdr[:]); err != nil {
			return Record{}, err
		}
	}
	sec := binary.LittleEndian.Uint32(hdr[0:])
	usec := binary.LittleEndian.Uint32(hdr[4:])
	incl := binary.LittleEndian.Uint32(hdr[8:])
	orig := binary.LittleEndian.Uint32(hdr[12:])
	data := make([]byte, incl)
	if n, err := io.ReadFull(r.r, data); err != nil {
		if r.lenient && (err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF)) {
			// Mid-record EOF: the capture stops inside this record. The
			// header and partial data are discarded bytes.
			r.stats.Dropped++
			r.stats.BytesSkipped += recordHdrLen + n
			obsRecordsDropped.Inc()
			obsBytesSkipped.Add(uint64(recordHdrLen + n))
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("pcapio: reading record data: %w", err)
	}
	rec := Record{
		Time:    time.Unix(int64(sec), int64(usec)*1000).UTC(),
		Data:    data,
		OrigLen: int(orig),
	}
	if incl < orig {
		rec.Truncated = true
		r.stats.Truncated++
		obsRecordsTruncated.Inc()
	}
	r.stats.Records++
	obsRecordsRead.Inc()
	return rec, nil
}

// fill reads a full record header, mapping a partial header at EOF to a
// counted drop (lenient) or an error (strict).
func (r *Reader) fill(hdr []byte) error {
	n, err := io.ReadFull(r.r, hdr)
	if err == nil {
		return nil
	}
	if err == io.EOF {
		return io.EOF
	}
	if r.lenient && errors.Is(err, io.ErrUnexpectedEOF) {
		r.stats.Dropped++
		r.stats.BytesSkipped += n
		obsRecordsDropped.Inc()
		obsBytesSkipped.Add(uint64(n))
		return io.EOF
	}
	return fmt.Errorf("pcapio: reading record header: %w", err)
}

// resync slides the 16-byte header window forward one byte at a time
// until it looks like a record boundary again, counting skipped bytes.
// Returns io.EOF when the scan limit or the stream ends first.
func (r *Reader) resync(hdr []byte) error {
	r.stats.Resyncs++
	obsReaderResyncs.Inc()
	for skipped := 0; skipped < resyncLimit; skipped++ {
		b, err := r.r.ReadByte()
		if err != nil {
			// Stream ended inside damage: drop what's left.
			r.stats.Dropped++
			r.stats.BytesSkipped += skipped + recordHdrLen
			obsRecordsDropped.Inc()
			obsBytesSkipped.Add(uint64(skipped + recordHdrLen))
			return io.EOF
		}
		copy(hdr, hdr[1:])
		hdr[recordHdrLen-1] = b
		if plausibleRecordHeader(hdr) && r.confirmCandidate(hdr) {
			r.stats.Dropped++
			r.stats.BytesSkipped += skipped + 1
			obsRecordsDropped.Inc()
			obsBytesSkipped.Add(uint64(skipped + 1))
			return nil
		}
	}
	r.stats.Dropped++
	r.stats.BytesSkipped += resyncLimit
	obsRecordsDropped.Inc()
	obsBytesSkipped.Add(resyncLimit)
	return io.EOF
}

// confirmCandidate cross-checks a plausible resync candidate against the
// bytes that follow it: the record's declared data must fit the stream,
// and where the buffer lets us see that far, the next record header must
// itself be plausible. A lone field check false-syncs when packet data
// happens to form a sane header one byte before the real boundary; the
// look-ahead rejects those.
func (r *Reader) confirmCandidate(hdr []byte) bool {
	incl := int(binary.LittleEndian.Uint32(hdr[8:]))
	p, err := r.r.Peek(incl + recordHdrLen)
	if len(p) >= incl+recordHdrLen {
		return plausibleRecordHeader(p[incl : incl+recordHdrLen])
	}
	if err == bufio.ErrBufferFull {
		return true // record larger than the peek window: accept unvalidated
	}
	// Stream ends before the next header: accept only if this record's
	// data still fits (a final, possibly tail-damaged record).
	return len(p) >= incl
}

// ForEach iterates records, stopping on the callback's error or EOF.
func (r *Reader) ForEach(fn func(Record) error) error {
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
}
