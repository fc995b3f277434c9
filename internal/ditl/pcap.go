package ditl

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"anycastctx/internal/dnssim"
	"anycastctx/internal/dnswire"
	"anycastctx/internal/ipaddr"
	"anycastctx/internal/obs"
	"anycastctx/internal/par"
	"anycastctx/internal/pcapio"
	"anycastctx/internal/rng"
)

// emitScratch is the pair of encode buffers one EmitSiteCapture call
// cycles through: every DNS message and packet is serialized into the
// same storage, copied out by the pcap writer, then overwritten. Pooled
// because the experiment runner emits captures from parallel workers.
type emitScratch struct {
	dns []byte
	pkt []byte
}

var emitScratchPool = sync.Pool{New: func() any {
	return &emitScratch{dns: make([]byte, 0, 512), pkt: make([]byte, 0, 2048)}
}}

// LetterAnycastAddr returns the anycast service address used by letter li
// in emitted captures (stable, outside the simulator's allocation pool).
func LetterAnycastAddr(li int) ipaddr.Addr {
	return ipaddr.AddrFrom4(199, 7, byte(li), 53)
}

// captureStart anchors emitted capture timestamps at the 2018 DITL window.
var captureStart = time.Date(2018, time.April, 10, 0, 0, 0, 0, time.UTC)

// EmitSiteCapture writes a sampled 48-hour pcap of the traffic arriving at
// one site of one letter: UDP query/response pairs plus occasional TCP
// handshakes, drawn from the recursives whose catchment includes the site
// and from junk sources. At most maxPackets packets are written.
//
// Randomness is derived per entity — Split(seed, PhaseCaptureJunk/Rec,
// letter).Fork(site).Fork(packet-or-recursive) — so contributors frame
// their records in parallel workers and the output bytes depend only on
// (campaign, seed, maxPackets), not on worker count or schedule.
func (c *Campaign) EmitSiteCapture(w io.Writer, li, siteID, maxPackets int, seed int64) (int, error) {
	return c.EmitSiteCaptureCtx(context.Background(), w, li, siteID, maxPackets, seed)
}

// captureUnit is one independently generated slice of a site capture:
// the junk-source block or one contributing recursive. Workers frame
// records into blob (via pcapio.AppendRecord) and log the end offset of
// each record, so the assembler can truncate at exactly maxPackets
// records while stitching units back together in deterministic order.
type captureUnit struct {
	recIdx int // contributor index into c.Pop.Recursives; -1 for junk
	quota  int // packet draws this unit makes (0 = skip entirely)
	blob   []byte
	ends   []int // cumulative record end offsets within blob
	err    error
}

// appendRecord frames one packet into the unit, honouring the site
// withdrawal cutoff: packets timestamped after the cut never reach the
// capture (they are counted, deterministically, as withdrawn).
func (u *captureUnit) appendRecord(ts time.Time, pkt []byte, cutoff time.Time) error {
	if !cutoff.IsZero() && ts.After(cutoff) {
		obsPcapWithdrawn.Inc()
		return nil
	}
	b, err := pcapio.AppendRecord(u.blob, ts, pkt)
	if err != nil {
		return err
	}
	u.blob = b
	u.ends = append(u.ends, len(b))
	return nil
}

// EmitSiteCaptureCtx is EmitSiteCapture parented under the span carried by
// ctx: a traced run records one "ditl.capture" span per emitted site
// capture, with per-worker framing shards beneath it. Output bytes are
// identical to EmitSiteCapture.
func (c *Campaign) EmitSiteCaptureCtx(ctx context.Context, w io.Writer, li, siteID, maxPackets int, seed int64) (int, error) {
	ctx, span := obs.StartSpanCtx(ctx, "ditl.capture")
	defer span.End()
	if li < 0 || li >= len(c.Letters) {
		return 0, fmt.Errorf("ditl: letter index %d out of range", li)
	}
	if siteID < 0 || siteID >= len(c.Letters[li].Sites) {
		return 0, fmt.Errorf("ditl: site %d out of range for letter %s", siteID, c.LetterNames[li])
	}
	pw, err := pcapio.NewWriter(w)
	if err != nil {
		return 0, err
	}
	// Site withdrawal (Tangled-style mid-run failure): when the fault
	// policy withdraws this site, packets timestamped after the cut-off
	// never reach the capture. Withdrawal is keyed on (letter, site) and
	// timestamps are per-entity draws, so the surviving prefix of each
	// unit is the same regardless of worker count.
	var cutoff time.Time
	if frac, withdrawn := c.Faults.SiteWithdrawCut(li, siteID); withdrawn {
		cutoff = captureStart.Add(time.Duration(frac * float64(48*time.Hour)))
	}
	dst := LetterAnycastAddr(li)

	// Contributors: recursives with volume to this site.
	type contrib struct {
		recIdx int
		vol    float64
	}
	var contribs []contrib
	var totalVol float64
	for ri := range c.Pop.Recursives {
		a := c.At(li, ri)
		if !a.Reachable {
			continue
		}
		for _, s := range a.Sites() {
			if s.SiteID != siteID {
				continue
			}
			vol := c.Rates[ri].RootTotalPerDay() * a.LetterWeight * s.Frac
			if vol > 0.5 {
				contribs = append(contribs, contrib{ri, vol})
				totalVol += vol
			}
		}
	}
	if len(contribs) == 0 {
		return 0, pw.Close()
	}
	obsPcapCaptures.Inc()

	// Plan deterministic per-unit packet quotas up front. Unit 0 is the
	// junk block; units 1..len(contribs) are the contributors in stable
	// contributor order. Every contributor draw emits at least two
	// packets (a UDP query/response pair), so each quota is clamped to
	// the draws that could still fit under the maxPackets cap, and once
	// the cumulative minimum covers the budget later contributors drop to
	// zero — bounding wasted generation to the TCP-handshake surplus
	// without making quotas depend on emission order.
	junkCount := maxPackets / 20
	if junkCount > len(c.JunkSources) {
		junkCount = len(c.JunkSources)
	}
	budget := maxPackets - junkCount
	units := make([]captureUnit, 1+len(contribs))
	units[0] = captureUnit{recIdx: -1, quota: junkCount}
	minEmitted := 0
	for i, cb := range contribs {
		u := &units[1+i]
		u.recIdx = cb.recIdx
		if minEmitted >= budget {
			continue // quota stays 0
		}
		n := int(float64(budget) * cb.vol / totalVol)
		if rem := (budget - minEmitted + 1) / 2; n > rem {
			n = rem
		}
		if n < 1 {
			n = 1
		}
		u.quota = n
		minEmitted += 2 * n
	}

	par.DoCtx(ctx, len(units), func(ctx context.Context, lo, hi int) {
		_, shard := obs.StartSpanCtx(ctx, "ditl.capture.shard")
		defer shard.End()
		scr := emitScratchPool.Get().(*emitScratch)
		defer emitScratchPool.Put(scr)
		// The root server memoizes answers, so each worker gets its own.
		var server *dnssim.RootServer
		if c.Zone != nil {
			server = dnssim.NewRootServer(c.Zone, c.LetterNames[li])
		}
		for ui := lo; ui < hi; ui++ {
			u := &units[ui]
			if u.quota == 0 {
				continue
			}
			if u.recIdx < 0 {
				u.err = c.genJunkUnit(u, scr, li, siteID, dst, seed, cutoff)
			} else {
				u.err = c.genContribUnit(u, scr, li, siteID, dst, seed, cutoff, server)
			}
		}
	})

	// Stitch units back together in order, truncating at maxPackets
	// records — the same cap the serial emitter enforced per packet.
	written := 0
	for ui := range units {
		u := &units[ui]
		if u.err != nil {
			return written, u.err
		}
		rem := maxPackets - written
		if rem <= 0 {
			break
		}
		take := len(u.ends)
		if take > rem {
			take = rem
		}
		if take == 0 {
			continue
		}
		if err := pw.WriteRaw(u.blob[:u.ends[take-1]]); err != nil {
			return written, err
		}
		written += take
	}
	obsPcapPackets.Add(uint64(written))
	return written, pw.Close()
}

// genJunkUnit frames the junk-source block: one spoofed-looking probe
// query per quota slot, each drawn from its own per-packet stream so the
// block could itself be split further without changing bytes.
func (c *Campaign) genJunkUnit(u *captureUnit, scr *emitScratch, li, siteID int, dst ipaddr.Addr, seed int64, cutoff time.Time) error {
	base := rng.Split(seed, rng.PhaseCaptureJunk, uint64(li)).Fork(uint64(siteID))
	for i := 0; i < u.quota; i++ {
		st := base.Fork(uint64(i))
		src := c.JunkSources[st.Intn(len(c.JunkSources))]
		ts := captureStart.Add(time.Duration(st.Int63n(48 * int64(time.Hour))))
		q := dnswire.NewQuery(uint16(st.Intn(65536)), randomProbeName(&st), dnswire.TypeA)
		qb, err := q.EncodeInto(scr.dns)
		if err != nil {
			return err
		}
		scr.dns = qb
		pkt, err := pcapio.SerializeUDPInto(scr.pkt, &pcapio.IPv4{Src: src, Dst: dst, ID: uint16(st.Intn(65536))},
			&pcapio.UDP{SrcPort: uint16(1024 + st.Intn(60000)), DstPort: 53}, qb)
		if err != nil {
			return err
		}
		scr.pkt = pkt
		if err := u.appendRecord(ts, pkt, cutoff); err != nil {
			return err
		}
	}
	return nil
}

// genContribUnit frames one contributing recursive's packets: UDP
// query/response pairs with occasional TCP handshakes, all drawn from
// the contributor's own stream.
func (c *Campaign) genContribUnit(u *captureUnit, scr *emitScratch, li, siteID int, dst ipaddr.Addr, seed int64, cutoff time.Time, server *dnssim.RootServer) error {
	st := rng.Split(seed, rng.PhaseCaptureRec, uint64(li)).Fork(uint64(siteID)).Fork(uint64(u.recIdx))
	rates := c.Rates[u.recIdx]
	egress := c.Egress(u.recIdx)
	rtt := time.Duration(c.At(li, u.recIdx).BaseRTTMs * float64(time.Millisecond))
	for k := 0; k < u.quota; k++ {
		src := egress[st.Intn(len(egress))]
		ts := captureStart.Add(time.Duration(st.Int63n(48 * int64(time.Hour))))
		qtype, qname := sampleQuery(rates.RootValidPerDay, rates.RootInvalidPerDay, rates.RootPTRPerDay, &st)
		q := dnswire.NewQuery(uint16(st.Intn(65536)), qname, qtype)
		// Most modern resolvers advertise EDNS buffer sizes.
		if st.Float64() < 0.8 {
			q.SetEDNS(4096, st.Float64() < 0.5)
		}
		qb, err := q.EncodeInto(scr.dns)
		if err != nil {
			return err
		}
		scr.dns = qb
		srcPort := uint16(1024 + st.Intn(60000))

		if st.Float64() < rates.TCPShare {
			// TCP handshake: SYN in, SYN-ACK out, ACK+query in. Each
			// packet is framed (copied into the unit blob) before the
			// next reuses the scratch buffer.
			seq := st.Uint32()
			syn, err := pcapio.SerializeTCPInto(scr.pkt, &pcapio.IPv4{Src: src, Dst: dst},
				&pcapio.TCP{SrcPort: srcPort, DstPort: 53, Seq: seq, Flags: pcapio.FlagSYN}, nil)
			if err != nil {
				return err
			}
			scr.pkt = syn
			if err := u.appendRecord(ts, syn, cutoff); err != nil {
				return err
			}
			synack, err := pcapio.SerializeTCPInto(scr.pkt, &pcapio.IPv4{Src: dst, Dst: src},
				&pcapio.TCP{SrcPort: 53, DstPort: srcPort, Seq: st.Uint32(), Ack: seq + 1,
					Flags: pcapio.FlagSYN | pcapio.FlagACK}, nil)
			if err != nil {
				return err
			}
			scr.pkt = synack
			if err := u.appendRecord(ts.Add(time.Microsecond), synack, cutoff); err != nil {
				return err
			}
			dataPkt, err := pcapio.SerializeTCPInto(scr.pkt, &pcapio.IPv4{Src: src, Dst: dst},
				&pcapio.TCP{SrcPort: srcPort, DstPort: 53, Seq: seq + 1, Ack: 1,
					Flags: pcapio.FlagACK | pcapio.FlagPSH}, qb)
			if err != nil {
				return err
			}
			scr.pkt = dataPkt
			if err := u.appendRecord(ts.Add(rtt), dataPkt, cutoff); err != nil {
				return err
			}
			continue
		}

		pkt, err := pcapio.SerializeUDPInto(scr.pkt, &pcapio.IPv4{Src: src, Dst: dst, ID: uint16(k)},
			&pcapio.UDP{SrcPort: srcPort, DstPort: 53}, qb)
		if err != nil {
			return err
		}
		scr.pkt = pkt
		if err := u.appendRecord(ts, pkt, cutoff); err != nil {
			return err
		}
		// Response packet (server-side captures see both directions).
		// With a zone attached, the authoritative server produces real
		// referrals/NXDOMAINs; otherwise synthesize a plain response.
		// The query wire bytes are dead once the query packet is
		// framed, so the response reuses both scratch buffers.
		var resp *dnswire.Message
		if server != nil {
			resp = server.Respond(q)
		} else {
			resp = dnswire.NewResponse(q, dnswire.RCodeNoError, nil)
			if qtype == dnswire.TypeA && len(qname) > 0 {
				resp.Header.RCode = dnswire.RCodeNXDomain
			}
		}
		rb, err := resp.EncodeInto(scr.dns)
		if err != nil {
			return err
		}
		scr.dns = rb
		rpkt, err := pcapio.SerializeUDPInto(scr.pkt, &pcapio.IPv4{Src: dst, Dst: src, ID: uint16(k)},
			&pcapio.UDP{SrcPort: 53, DstPort: srcPort}, rb)
		if err != nil {
			return err
		}
		scr.pkt = rpkt
		if err := u.appendRecord(ts.Add(50*time.Microsecond), rpkt, cutoff); err != nil {
			return err
		}
	}
	return nil
}

// sampleQuery draws a query type/name matching the recursive's traffic mix.
func sampleQuery(valid, invalid, ptr float64, st *rng.Stream) (dnswire.Type, string) {
	total := valid + invalid + ptr
	if total <= 0 {
		return dnswire.TypeNS, "com"
	}
	u := st.Float64() * total
	switch {
	case u < valid:
		return dnswire.TypeNS, validTLDName(st)
	case u < valid+invalid:
		return dnswire.TypeA, randomProbeName(st)
	default:
		return dnswire.TypePTR, fmt.Sprintf("%d.%d.%d.%d.in-addr.arpa",
			st.Intn(256), st.Intn(256), st.Intn(256), st.Intn(256))
	}
}

var commonTLDs = []string{"com", "net", "org", "de", "cn", "uk", "nl", "ru", "jp", "fr", "io", "info"}

func validTLDName(st *rng.Stream) string {
	return commonTLDs[st.Intn(len(commonTLDs))]
}

func randomProbeName(st *rng.Stream) string {
	n := 7 + st.Intn(9)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + st.Intn(26))
	}
	return string(b)
}

// CaptureSummary aggregates a read-back capture. The degradation-funnel
// fields are all zero for a clean capture; for damaged input they account
// for every record the summarizer read but could not use.
type CaptureSummary struct {
	Packets     int
	UDPQueries  int
	TCPPackets  int
	Responses   int
	NXDomain    int
	PTRQueries  int
	Sources     map[ipaddr.Slash24Key]int
	FirstToLast time.Duration

	// RecordsRead counts every record the pcap reader returned,
	// including ones skipped below; Packets counts only records that
	// decoded fully into the summary.
	RecordsRead int
	// TruncatedRecords were stored incomplete (included < original).
	TruncatedRecords int
	// MalformedPackets failed IPv4/transport decoding.
	MalformedPackets int
	// MalformedDNS carried a payload dnswire could not parse.
	MalformedDNS int
	// DroppedRecords and SkippedBytes are reader-level recovery events
	// (bad framing, resyncs, mid-record EOF).
	DroppedRecords int
	SkippedBytes   int
}

// Skipped returns the number of read records the summary excluded.
func (s *CaptureSummary) Skipped() int {
	return s.TruncatedRecords + s.MalformedPackets + s.MalformedDNS
}

// SummarizeCapture decodes a pcap stream (as written by EmitSiteCapture)
// back into aggregate counts — the first stage of the analysis pipeline,
// exercising the same decode path a DITL consumer would. Like that
// consumer (which discards ~64% of raw DITL input as junk, §2.1), it
// degrades gracefully: truncated records, undecodable packets, and
// malformed DNS payloads are skipped and counted — in the summary and in
// the ditl.capture_* obs counters — never fatal. Only an unreadable pcap
// file header returns an error.
func SummarizeCapture(r io.Reader) (*CaptureSummary, error) {
	pr, err := pcapio.NewReader(r)
	if err != nil {
		return nil, err
	}
	pr.SetLenient(true)
	s := &CaptureSummary{Sources: make(map[ipaddr.Slash24Key]int)}
	var first, last time.Time
	err = pr.ForEach(func(rec pcapio.Record) error {
		s.RecordsRead++
		if rec.Truncated {
			s.TruncatedRecords++
			obsSumTruncated.Inc()
			return nil
		}
		pkt, err := pcapio.DecodePacket(rec.Data)
		if err != nil {
			s.MalformedPackets++
			obsSumMalformedPkt.Inc()
			return nil
		}
		var msg *dnswire.Message
		if len(pkt.Payload) > 0 {
			if msg, err = dnswire.Decode(pkt.Payload); err != nil {
				s.MalformedDNS++
				obsSumMalformedDNS.Inc()
				return nil
			}
		}
		s.Packets++
		if first.IsZero() || rec.Time.Before(first) {
			first = rec.Time
		}
		if rec.Time.After(last) {
			last = rec.Time
		}
		if pkt.TCP != nil {
			s.TCPPackets++
		}
		if msg == nil {
			return nil
		}
		if msg.Header.Response {
			s.Responses++
			if msg.Header.RCode == dnswire.RCodeNXDomain {
				s.NXDomain++
			}
			return nil
		}
		if pkt.UDP != nil {
			s.UDPQueries++
		}
		s.Sources[ipaddr.Key24(pkt.IPv4.Src)]++
		if len(msg.Questions) > 0 && msg.Questions[0].Type == dnswire.TypePTR {
			s.PTRQueries++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	st := pr.Stats()
	s.DroppedRecords = st.Dropped
	s.SkippedBytes = st.BytesSkipped
	// The summary's funnel must reconcile with the reader's: every record
	// the reader returned sits in exactly one bucket (decoded, truncated,
	// malformed packet, or malformed DNS — a record that is both truncated
	// and malformed counts once, as truncated), and the truncated bucket
	// agrees with the reader's own truncation count. A mismatch means the
	// funnel double-counted or lost a record, which would silently skew
	// every degradation number downstream.
	if s.RecordsRead != st.Records || s.TruncatedRecords != st.Truncated ||
		s.Packets+s.Skipped() != s.RecordsRead {
		return nil, fmt.Errorf(
			"ditl: capture funnel does not reconcile with reader stats: %d read (reader %d), %d truncated (reader %d), %d decoded + %d skipped",
			s.RecordsRead, st.Records, s.TruncatedRecords, st.Truncated, s.Packets, s.Skipped())
	}
	if !first.IsZero() {
		s.FirstToLast = last.Sub(first)
	}
	return s, nil
}
