// Command pcapdump decodes a pcap capture written by ditlgen (or any
// raw-IP pcap of DNS traffic) and prints either a per-packet dump or an
// aggregate summary — the first stage of the DITL analysis pipeline.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"anycastctx/internal/ditl"
	"anycastctx/internal/dnswire"
	"anycastctx/internal/pcapio"
)

func main() {
	var (
		summary = flag.Bool("summary", false, "print aggregate summary instead of per-packet lines")
		limit   = flag.Int("n", 50, "max packets to print in dump mode")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: pcapdump [-summary] [-n N] file.pcap")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()

	if *summary {
		s, err := ditl.SummarizeCapture(f)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("packets:      %d\n", s.Packets)
		fmt.Printf("UDP queries:  %d\n", s.UDPQueries)
		fmt.Printf("TCP packets:  %d\n", s.TCPPackets)
		fmt.Printf("responses:    %d (%d NXDOMAIN)\n", s.Responses, s.NXDomain)
		fmt.Printf("PTR queries:  %d\n", s.PTRQueries)
		fmt.Printf("source /24s:  %d\n", len(s.Sources))
		fmt.Printf("capture span: %s\n", s.FirstToLast)
		if s.Skipped()+s.DroppedRecords > 0 || s.SkippedBytes > 0 {
			fmt.Printf("degraded:     %d of %d records skipped (%d truncated, %d malformed packet, %d malformed DNS, %d unreadable), %d bytes resynced past\n",
				s.Skipped()+s.DroppedRecords, s.RecordsRead+s.DroppedRecords, s.TruncatedRecords, s.MalformedPackets, s.MalformedDNS, s.DroppedRecords, s.SkippedBytes)
		}
		type src struct {
			key string
			n   int
		}
		var tops []src
		for k, n := range s.Sources {
			tops = append(tops, src{k.String(), n})
		}
		sort.Slice(tops, func(i, j int) bool {
			if tops[i].n != tops[j].n {
				return tops[i].n > tops[j].n
			}
			return tops[i].key < tops[j].key
		})
		fmt.Println("top sources:")
		for i := 0; i < 10 && i < len(tops); i++ {
			fmt.Printf("  %-18s %d queries\n", tops[i].key, tops[i].n)
		}
		return
	}

	r, err := pcapio.NewReader(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	printed := 0
	err = r.ForEach(func(rec pcapio.Record) error {
		if printed >= *limit {
			return nil
		}
		pkt, err := pcapio.DecodePacket(rec.Data)
		if err != nil {
			fmt.Printf("%s  undecodable: %v\n", rec.Time.Format("15:04:05.000000"), err)
			printed++
			return nil
		}
		ip := pkt.IPv4
		proto := "?"
		var sport, dport uint16
		switch {
		case pkt.UDP != nil:
			proto = "UDP"
			sport, dport = pkt.UDP.SrcPort, pkt.UDP.DstPort
		case pkt.TCP != nil:
			proto = "TCP"
			sport, dport = pkt.TCP.SrcPort, pkt.TCP.DstPort
		}
		line := fmt.Sprintf("%s  %s %s:%d > %s:%d",
			rec.Time.Format("15:04:05.000000"), proto, ip.Src, sport, ip.Dst, dport)
		if len(pkt.Payload) > 0 {
			if msg, err := dnswire.Decode(pkt.Payload); err == nil && len(msg.Questions) > 0 {
				dir := "query"
				if msg.Header.Response {
					dir = "resp " + msg.Header.RCode.String()
				}
				line += fmt.Sprintf("  %s %s %s", dir, msg.Questions[0].Type, msg.Questions[0].Name)
			}
		}
		fmt.Println(line)
		printed++
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
