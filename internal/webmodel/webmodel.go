// Package webmodel estimates how many round trips a web page load costs
// (Appendix C): per-connection RTTs from TCP slow start (Eq. 4), parallel
// connections accounted by temporal overlap, and two handshake RTTs for
// the first connection. It also provides the browsing-time model used to
// put root DNS latency in perspective (§4.3's 1.6%-of-page-load and
// 0.05%-of-browsing figures).
package webmodel

import (
	"math"
	"math/rand"
	"sort"
)

// DefaultInitialWindowBytes is the initial congestion window the paper
// assumes (~15 kB, the dominant deployed value per Rüth et al.).
const DefaultInitialWindowBytes = 15000

// ConnRTTs implements Eq. 4: the slow-start lower bound on round trips to
// transfer totalBytes over one connection, N = ceil(log2(D/W)). Transfers
// that fit in the initial window cost one round trip.
func ConnRTTs(totalBytes, initWindowBytes int) int {
	if totalBytes <= 0 {
		return 0
	}
	if initWindowBytes <= 0 {
		initWindowBytes = DefaultInitialWindowBytes
	}
	if totalBytes <= initWindowBytes {
		return 1
	}
	return int(math.Ceil(math.Log2(float64(totalBytes) / float64(initWindowBytes))))
}

// Connection is one TCP connection observed during a page load.
type Connection struct {
	// Bytes is the total payload from server to client.
	Bytes int
	// Start and End bound the connection's active period (seconds,
	// relative to navigation start).
	Start, End float64
}

// HandshakeRTTs is charged once per page: TCP + TLS for the first
// connection (subsequent handshakes run in parallel with other requests).
const HandshakeRTTs = 2

// PageRTTs lower-bounds the RTTs of a page load (Appendix C's method):
// count the largest connection, then greedily add connections (largest
// first) that do not overlap temporally with any already-counted one, and
// add the handshake cost.
func PageRTTs(conns []Connection, initWindowBytes int) int {
	if len(conns) == 0 {
		return 0
	}
	sorted := make([]Connection, len(conns))
	copy(sorted, conns)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Bytes > sorted[j].Bytes })

	var counted []Connection
	rtts := 0
	for _, c := range sorted {
		if c.Bytes <= 0 {
			continue
		}
		overlap := false
		for _, k := range counted {
			if c.Start < k.End && k.Start < c.End {
				overlap = true
				break
			}
		}
		if overlap && len(counted) > 0 {
			continue
		}
		counted = append(counted, c)
		rtts += ConnRTTs(c.Bytes, initWindowBytes)
	}
	return rtts + HandshakeRTTs
}

// Page is a synthetic web page for the corpus sweep.
type Page struct {
	Name  string
	Conns []Connection
}

// Synthetic corpus shape.
const (
	// pages is how many distinct pages to generate (the paper loads 9).
	pages = 9
	// loadsPerPage is how many loads to simulate per page (paper: 20).
	loadsPerPage = 20
	// meanConnections per page.
	meanConnections float64 = 8
	// medianObjectBytes sets the size scale.
	medianObjectBytes float64 = 450_000
)

// GeneratePage builds one synthetic page: one large main-document
// connection, a short dependency chain of serial resource connections, and
// several parallel connections that overlap the main transfer (and so do
// not add to the lower bound).
func GeneratePage(name string, rng *rand.Rand) Page {
	var conns []Connection

	// Main document + render-blocking assets on one connection.
	mainSize := medianObjectBytes * 2.5 * math.Exp(0.4*rng.NormFloat64())
	mainDur := 1 + rng.Float64()
	conns = append(conns, Connection{Bytes: int(mainSize), Start: 0, End: mainDur})

	// Dependency chain: serial connections after the main transfer.
	t := mainDur + 0.05
	for k := 0; k < 2+rng.Intn(3); k++ {
		size := medianObjectBytes * 0.2 * math.Exp(0.6*rng.NormFloat64())
		dur := 0.2 + rng.Float64()*0.6
		conns = append(conns, Connection{Bytes: int(size), Start: t, End: t + dur})
		t += dur + 0.05
	}

	// Parallel resources overlapping the main transfer.
	nPar := int(rng.ExpFloat64() * meanConnections / 2)
	if nPar > 30 {
		nPar = 30
	}
	for k := 0; k < nPar; k++ {
		size := medianObjectBytes * 0.3 * math.Exp(0.8*rng.NormFloat64())
		start := rng.Float64() * mainDur * 0.8
		conns = append(conns, Connection{Bytes: int(size), Start: start, End: start + 0.2 + rng.Float64()*0.8})
	}
	return Page{Name: name, Conns: conns}
}

// SweepResult is the Appendix C experiment outcome.
type SweepResult struct {
	// RTTsPerLoad holds one entry per page load.
	RTTsPerLoad []int
	// FracWithin10 and FracWithin20 summarize the distribution: the paper
	// finds only a few percent of loads fit in 10 RTTs while ~90% fit in
	// 20, making 10 a sound lower bound.
	FracWithin10, FracWithin20 float64
	// LowerBound is the chosen per-page RTT estimate.
	LowerBound int
}

// RunSweep loads the synthetic corpus and summarizes RTT counts.
func RunSweep(rng *rand.Rand) SweepResult {
	var res SweepResult
	for p := 0; p < pages; p++ {
		page := GeneratePage("page", rng)
		for l := 0; l < loadsPerPage; l++ {
			loaded := jitterLoad(page, rng)
			res.RTTsPerLoad = append(res.RTTsPerLoad, PageRTTs(loaded.Conns, DefaultInitialWindowBytes))
		}
	}
	var w10, w20 int
	for _, r := range res.RTTsPerLoad {
		if r <= 10 {
			w10++
		}
		if r <= 20 {
			w20++
		}
	}
	n := float64(len(res.RTTsPerLoad))
	res.FracWithin10 = float64(w10) / n
	res.FracWithin20 = float64(w20) / n
	res.LowerBound = 10
	return res
}

// jitterLoad perturbs sizes and timings per load (caches, network noise).
func jitterLoad(p Page, rng *rand.Rand) Page {
	out := Page{Name: p.Name, Conns: make([]Connection, len(p.Conns))}
	for i, c := range p.Conns {
		f := 0.8 + 0.4*rng.Float64()
		out.Conns[i] = Connection{
			Bytes: int(float64(c.Bytes) * f),
			Start: c.Start * (0.9 + 0.2*rng.Float64()),
			End:   c.End * (0.9 + 0.2*rng.Float64()),
		}
		if out.Conns[i].End <= out.Conns[i].Start {
			out.Conns[i].End = out.Conns[i].Start + 0.05
		}
	}
	return out
}

// BrowsingDay models one user's daily web activity for the §4.3 local
// perspective.
type BrowsingDay struct {
	// PageLoads per day.
	PageLoads int
	// PageLoadMs is the median full page-load time.
	PageLoadMs float64
	// ActiveBrowsingMs is time spent interacting with pages.
	ActiveBrowsingMs float64
}

// TypicalBrowsingDay returns parameters matching the authors' plugin
// measurements: tens of page loads, seconds per load, hours of activity.
func TypicalBrowsingDay(rng *rand.Rand) BrowsingDay {
	loads := 60 + rng.Intn(80)
	return BrowsingDay{
		PageLoads:        loads,
		PageLoadMs:       1500 + rng.Float64()*2000,
		ActiveBrowsingMs: (2.5 + 2*rng.Float64()) * 3600 * 1000,
	}
}

// RootShare reports daily root DNS latency as fractions of cumulative page
// load time and active browsing time.
func (d BrowsingDay) RootShare(rootLatencyMsPerDay float64) (ofPageLoad, ofBrowsing float64) {
	cumLoad := float64(d.PageLoads) * d.PageLoadMs
	if cumLoad > 0 {
		ofPageLoad = rootLatencyMsPerDay / cumLoad
	}
	if d.ActiveBrowsingMs > 0 {
		ofBrowsing = rootLatencyMsPerDay / d.ActiveBrowsingMs
	}
	return ofPageLoad, ofBrowsing
}
