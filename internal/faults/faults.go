// Package faults is the deterministic fault-injection layer for the
// capture/decode pipeline. The paper's dataset survives hostile input —
// §2.1 discards ~64% of 51.9B raw DITL queries as junk before analysis —
// and real anycast testbeds (Tangled) must tolerate site failures and
// partial data. This package makes those conditions reproducible: a
// seeded Policy decides, hash-deterministically, which pcap records get
// corrupted/truncated/duplicated/reordered/dropped, which DNS payloads
// get byte flips, which telemetry rows vanish, and which anycast sites
// are withdrawn mid-run.
//
// Two kinds of API:
//
//   - Pure, goroutine-safe decision functions on Policy (DropServerLogRow,
//     DropClientRow, SiteWithdrawCut) that hash their keys against the
//     seed, so concurrent pipeline stages make identical choices
//     regardless of scheduling.
//   - A stateful Mangler that rewrites a pcap byte stream record by
//     record, recording each record's Fate so tests can reconstruct the
//     exact surviving subset and prove degradation is graceful.
//
// A zero Policy injects nothing; every decision function returns the
// no-fault answer, so fault plumbing can stay threaded through the
// pipeline permanently at zero cost.
package faults

import (
	"encoding/binary"

	"anycastctx/internal/obs"
	"anycastctx/internal/rng"
)

// Injection counters: what the layer put in, so run reports can compare
// injected faults against the drops each pipeline stage recovered.
var (
	obsPcapDropped    = obs.NewCounter("faults.pcap_records_dropped")
	obsPcapCorrupted  = obs.NewCounter("faults.pcap_records_corrupted")
	obsPcapTruncated  = obs.NewCounter("faults.pcap_records_truncated")
	obsPcapDNSFlipped = obs.NewCounter("faults.pcap_dns_byteflips")
	obsPcapDuplicated = obs.NewCounter("faults.pcap_records_duplicated")
	obsPcapReordered  = obs.NewCounter("faults.pcap_records_reordered")
	obsRowsDropped    = obs.NewCounter("faults.telemetry_rows_dropped")
	obsSitesWithdrawn = obs.NewCounter("faults.sites_withdrawn")
)

// Policy configures fault injection. The zero value injects nothing.
// All probabilities are in [0, 1].
type Policy struct {
	// Seed drives every injection decision; equal policies over equal
	// inputs inject identical faults.
	Seed int64

	// Pcap record faults, applied by Mangler.MangleCapture.
	PcapDropProb      float64 // record removed entirely (header + data)
	PcapCorruptProb   float64 // byte flipped in the record's IP header
	PcapTruncateProb  float64 // data cut short; header keeps original length
	PcapDuplicateProb float64 // record emitted twice
	PcapReorderProb   float64 // record swapped with its successor

	// DNSByteFlipProb flips a byte inside the DNS payload region (past
	// the IP+UDP headers), leaving the IP checksum valid so the fault
	// surfaces in dnswire, not pcapio.
	DNSByteFlipProb float64

	// TelemetryDropProb drops individual CDN telemetry rows (server-side
	// log lines and client-side measurements).
	TelemetryDropProb float64

	// SiteWithdrawProb withdraws an anycast site partway through the
	// capture window (Tangled-style site failure): packets after the
	// cut-off never reach the capture.
	SiteWithdrawProb float64
}

// Enabled reports whether the policy injects any fault at all.
func (p Policy) Enabled() bool {
	return p.PcapDropProb > 0 || p.PcapCorruptProb > 0 || p.PcapTruncateProb > 0 ||
		p.PcapDuplicateProb > 0 || p.PcapReorderProb > 0 || p.DNSByteFlipProb > 0 ||
		p.TelemetryDropProb > 0 || p.SiteWithdrawProb > 0
}

// Uniform returns a policy injecting every fault class at the same rate —
// the shape the -faults experiment flag uses.
func Uniform(seed int64, rate float64) Policy {
	return Policy{
		Seed:              seed,
		PcapDropProb:      rate,
		PcapCorruptProb:   rate,
		PcapTruncateProb:  rate,
		PcapDuplicateProb: rate,
		PcapReorderProb:   rate,
		DNSByteFlipProb:   rate,
		TelemetryDropProb: rate,
		SiteWithdrawProb:  rate,
	}
}

// Decision domains keep hash streams for different fault classes
// independent even when their keys collide.
const (
	domainServerRow uint64 = iota + 1
	domainClientRow
	domainSiteWithdraw
	domainSiteCut
)

// hash mixes the seed, a domain, and two keys (splitmix64-style).
func (p Policy) hash(domain, a, b uint64) uint64 {
	x := uint64(p.Seed) ^ domain*0x9e3779b97f4a7c15
	x ^= a * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 30)) * 0x94d049bb133111eb
	x ^= b * 0xff51afd7ed558ccd
	x ^= x >> 31
	x *= 0x9e3779b97f4a7c15
	x ^= x >> 33
	return x
}

// roll converts a hash into a Bernoulli draw with probability prob.
func (p Policy) roll(prob float64, domain, a, b uint64) bool {
	if prob <= 0 {
		return false
	}
	if prob >= 1 {
		return true
	}
	u := float64(p.hash(domain, a, b)>>11) / float64(1<<53)
	return u < prob
}

// DropServerLogRow decides whether one server-side log row (ring index,
// source AS) is lost. Deterministic per key; safe from worker goroutines.
func (p Policy) DropServerLogRow(ring int, asn int64) bool {
	drop := p.roll(p.TelemetryDropProb, domainServerRow, uint64(ring), uint64(asn))
	if drop {
		obsRowsDropped.Inc()
	}
	return drop
}

// DropClientRow decides whether one client-side measurement row is lost.
func (p Policy) DropClientRow(ring int, asn int64) bool {
	drop := p.roll(p.TelemetryDropProb, domainClientRow, uint64(ring), uint64(asn))
	if drop {
		obsRowsDropped.Inc()
	}
	return drop
}

// SiteWithdrawCut decides whether site siteID of letter li fails mid-run.
// When withdrawn, frac in [0.25, 0.75) is the fraction of the capture
// window after which the site stops seeing traffic.
func (p Policy) SiteWithdrawCut(li, siteID int) (frac float64, withdrawn bool) {
	if !p.roll(p.SiteWithdrawProb, domainSiteWithdraw, uint64(li), uint64(siteID)) {
		return 0, false
	}
	u := float64(p.hash(domainSiteCut, uint64(li), uint64(siteID))>>11) / float64(1<<53)
	obsSitesWithdrawn.Inc()
	return 0.25 + 0.5*u, true
}

// Fate records what the Mangler did to one original pcap record
// (bitmask; a record can be both corrupted and duplicated).
type Fate uint8

// Fate bits.
const (
	FateDropped Fate = 1 << iota
	FateCorrupted
	FateTruncated
	FateDNSFlipped
	FateDuplicated
)

// CaptureStats counts faults injected into one or more captures.
type CaptureStats struct {
	Records    int // original records seen
	Dropped    int
	Corrupted  int
	Truncated  int
	DNSFlipped int
	Duplicated int
	Reordered  int
}

// Injected reports the number of records altered or removed.
func (s CaptureStats) Injected() int {
	return s.Dropped + s.Corrupted + s.Truncated + s.DNSFlipped
}

// Mangler rewrites pcap byte streams under a policy. Not safe for
// concurrent use (it accumulates stats); create one per stream (or reuse
// across streams for cumulative stats). Fate decisions are keyed on each
// record's identity — timestamp plus a content hash — not its arrival
// index, so a record keeps its fate when the stream around it is
// re-sliced, filtered, or emitted in a different order.
type Mangler struct {
	p     Policy
	stats CaptureStats
	fates []Fate
}

// NewMangler creates a mangler seeded from the policy.
func NewMangler(p Policy) *Mangler {
	return &Mangler{p: p}
}

// manglerSalt keeps the mangler's streams disjoint from every other
// consumer of the policy seed ("faults" in ASCII).
const manglerSalt = 0x6661756c7473

// recordKey folds one record's identity — capture timestamp (the first 8
// header bytes) and payload content — into a stream key. FNV-1a; the
// Split construction finalizes the mixing.
func recordKey(hdr, data []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range hdr[:8] {
		h ^= uint64(b)
		h *= 1099511628211
	}
	for _, b := range data {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// Stats returns cumulative injection counts.
func (m *Mangler) Stats() CaptureStats { return m.stats }

// Fates returns one Fate per original record of the last MangleCapture
// call, in original record order.
func (m *Mangler) Fates() []Fate { return m.fates }

// pcap framing constants (classic libpcap, matching internal/pcapio).
const (
	pcapFileHeaderLen   = 24
	pcapRecordHeaderLen = 16
)

// MangleCapture applies the policy's pcap fault classes to a capture
// written by pcapio.Writer and returns the damaged bytes. The global
// header passes through untouched; input too short or misframed to parse
// is returned verbatim (the reader's own recovery handles it).
func (m *Mangler) MangleCapture(capture []byte) []byte {
	if len(capture) < pcapFileHeaderLen {
		m.fates = nil
		return capture
	}
	// Slice the stream into records.
	type rec struct {
		hdr, data []byte
	}
	var recs []rec
	off := pcapFileHeaderLen
	for off+pcapRecordHeaderLen <= len(capture) {
		hdr := capture[off : off+pcapRecordHeaderLen]
		incl := int(binary.LittleEndian.Uint32(hdr[8:]))
		if off+pcapRecordHeaderLen+incl > len(capture) {
			break // misframed tail: passed through below
		}
		recs = append(recs, rec{
			hdr:  hdr,
			data: capture[off+pcapRecordHeaderLen : off+pcapRecordHeaderLen+incl],
		})
		off += pcapRecordHeaderLen + incl
	}
	tail := capture[off:]

	m.fates = make([]Fate, len(recs))
	m.stats.Records += len(recs)
	out := make([]byte, 0, len(capture))
	out = append(out, capture[:pcapFileHeaderLen]...)

	// Decide fates and build possibly-rewritten record bytes. Each
	// record's draws come from its own identity-keyed stream, in a fixed
	// order, so equal records get equal fates wherever they appear.
	emit := make([][]byte, 0, len(recs)+4)
	order := make([]int, 0, len(recs)) // indices into emit, post-reorder
	pairRolls := make([]rng.Stream, 0, len(recs))
	for i := range recs {
		r := recs[i]
		fate := Fate(0)
		hdr := r.hdr
		data := r.data
		base := rng.Split(m.p.Seed^manglerSalt, rng.PhaseMangle, recordKey(hdr, data))
		st := base.Fork(0)
		if st.Float64() < m.p.PcapDropProb {
			fate |= FateDropped
			m.stats.Dropped++
			obsPcapDropped.Inc()
		} else {
			if st.Float64() < m.p.PcapCorruptProb && len(data) > 0 {
				// Flip a byte inside the IPv4 header region: a single-byte
				// XOR always breaks the one's-complement header checksum,
				// so the decoder must reject the packet.
				data = append([]byte(nil), data...)
				lim := len(data)
				if lim > 20 {
					lim = 20
				}
				data[st.Intn(lim)] ^= byte(1 + st.Intn(255))
				fate |= FateCorrupted
				m.stats.Corrupted++
				obsPcapCorrupted.Inc()
			}
			if fate == 0 && st.Float64() < m.p.PcapTruncateProb && len(data) > 1 {
				// Cut the data short but leave the header's original-length
				// field intact: the on-disk shape of a snaplen-truncated or
				// interrupted capture (incl < orig).
				cut := 1 + st.Intn(len(data)-1)
				hdr = append([]byte(nil), hdr...)
				binary.LittleEndian.PutUint32(hdr[8:], uint32(len(data)-cut))
				data = data[:len(data)-cut]
				fate |= FateTruncated
				m.stats.Truncated++
				obsPcapTruncated.Inc()
			}
			if fate == 0 && st.Float64() < m.p.DNSByteFlipProb && len(data) > 28 {
				// Flip a byte past the IP (20) + UDP (8) headers: checksums
				// that pcapio verifies stay valid, and the damage surfaces
				// in dnswire.Decode instead.
				data = append([]byte(nil), data...)
				data[28+st.Intn(len(data)-28)] ^= byte(1 + st.Intn(255))
				fate |= FateDNSFlipped
				m.stats.DNSFlipped++
				obsPcapDNSFlipped.Inc()
			}
			if st.Float64() < m.p.PcapDuplicateProb {
				fate |= FateDuplicated
				m.stats.Duplicated++
				obsPcapDuplicated.Inc()
			}
		}
		m.fates[i] = fate
		if fate&FateDropped == 0 {
			emit = append(emit, append(append([]byte(nil), hdr...), data...))
			order = append(order, len(emit)-1)
			pairRolls = append(pairRolls, base.Fork(1))
			if fate&FateDuplicated != 0 {
				order = append(order, len(emit)-1)
				pairRolls = append(pairRolls, base.Fork(2))
			}
		}
	}
	// Reordering: swap adjacent emitted records. The roll for the pair
	// starting at position i is keyed on the identity of the record
	// occupying that position, so the swap pattern, like every other
	// fate, follows record content rather than stream position.
	for i := 0; i+1 < len(order); i++ {
		if pairRolls[i].Float64() < m.p.PcapReorderProb {
			order[i], order[i+1] = order[i+1], order[i]
			m.stats.Reordered++
			obsPcapReordered.Inc()
			i++ // don't re-swap the record just moved here
		}
	}
	for _, idx := range order {
		out = append(out, emit[idx]...)
	}
	return append(out, tail...)
}
