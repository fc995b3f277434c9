package dnssim

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"anycastctx/internal/obs"
	"anycastctx/internal/par"
	"anycastctx/internal/rng"
)

// Observability handles for the generated workload mix.
var (
	obsClientQueries = obs.NewCounter("dnssim.client_queries")
	obsProbeQueries  = obs.NewCounter("dnssim.probe_queries")
	obsJunkQueries   = obs.NewCounter("dnssim.junk_queries")
)

// ClientConfig describes the user population driving one recursive
// resolver in the event-level simulation (the "local perspective" of §4.3).
type ClientConfig struct {
	// Users behind the resolver.
	Users int
	// QueriesPerUserPerDay is each user's mean DNS lookup rate (browsing,
	// apps, background software).
	QueriesPerUserPerDay float64
}

func (c ClientConfig) withDefaults() ClientConfig {
	if c.Users == 0 {
		c.Users = 100
	}
	if c.QueriesPerUserPerDay == 0 {
		c.QueriesPerUserPerDay = 250
	}
	return c
}

// Calibration of the client workload that every population shares.
const (
	// chromiumProbesPerUserPerDay is the rate of captive-portal detection
	// probes — random single labels that are NXDOMAIN at the root (§B.1).
	chromiumProbesPerUserPerDay float64 = 1.5
	// junkPerUserPerDay is the rate of queries for invalid suffixes like
	// local/belkin/corp leaking from software and corporate networks.
	junkPerUserPerDay float64 = 0.8
	// domainZipfS shapes domain popularity (>1; higher = more head-heavy).
	domainZipfS float64 = 1.2
	// domainsPerTLD bounds the per-TLD domain universe.
	domainsPerTLD = 50000
	// tldsPerUser bounds how many distinct TLDs each user's browsing
	// touches (individuals concentrate far harder than the aggregate;
	// this is why a personal resolver's root miss rate stays near 1.5%,
	// §4.3).
	tldsPerUser = 30
)

var junkSuffixes = []string{"local", "belkin", "corp", "home", "lan", "internal"}

// Client generates a user query stream against a Resolver.
type Client struct {
	cfg  ClientConfig
	zone *Zone
	rng  *rand.Rand
	zipf *rand.Zipf
	// palette is the union of the users' TLD interests: popularity-drawn
	// with duplicates, so sampling uniformly from it preserves the
	// aggregate distribution while bounding per-population TLD diversity.
	palette []int
}

// NewClient builds a workload generator for zone. The TLD palette is
// drawn from per-slot splittable streams under par.Do (one slot per
// user-TLD interest), so construction parallelizes deterministically;
// the Poisson query loop draws from a single derived stream, in order,
// on RunCtx's generator goroutine.
func NewClient(zone *Zone, cfg ClientConfig, seed int64) *Client {
	cfg = cfg.withDefaults()
	palette := make([]int, cfg.Users*tldsPerUser)
	par.Do(len(palette), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			st := rng.Split(seed, rng.PhaseClientPalette, uint64(i))
			palette[i] = zone.SampleTLD(&st)
		}
	})
	runRNG := rng.NewRand(seed, rng.PhaseClientRun, 0)
	return &Client{
		cfg:     cfg,
		zone:    zone,
		rng:     runRNG,
		zipf:    rand.NewZipf(runRNG, domainZipfS, 1, domainsPerTLD-1),
		palette: palette,
	}
}

// sampleDomain draws a valid domain from the population's TLD palette and
// site popularity.
func (c *Client) sampleDomain() Name {
	tld := c.palette[c.rng.Intn(len(c.palette))]
	site := c.zipf.Uint64()
	return Name{kind: nameSite, idx: uint32(tld), num: site, text: c.zone.TLDs[tld].Name}
}

// sampleChromiumProbe draws a random single-label probe name.
func (c *Client) sampleChromiumProbe() string {
	var b [15]byte
	n := 7 + c.rng.Intn(9)
	for i := 0; i < n; i++ {
		b[i] = byte('a' + c.rng.Intn(26))
	}
	return string(b[:n])
}

// sampleJunk draws a query under an invalid suffix.
func (c *Client) sampleJunk() Name {
	host := c.rng.Intn(2000)
	j := c.rng.Intn(len(junkSuffixes))
	return Name{kind: nameJunk, idx: uint32(j), num: uint64(host), text: junkSuffixes[j]}
}

// RunStats summarizes one Run.
type RunStats struct {
	Queries        uint64
	ValidQueries   uint64
	ProbeQueries   uint64
	JunkQueries    uint64
	TotalLatencyMs float64
	RootLatencyMs  float64
}

// batchSize is how many drawn queries the generator hands RunCtx at a
// time. A hand-off that finds its reader parked costs a goroutine wake-up
// of several microseconds, so small batches eat the overlap: on a 2-CPU
// box a 150-user, 2-day run took 22 ms serially, 22 ms in batches of 128
// and 13 ms in batches of 512 to 4,096. It is a constant because no draw
// depends on it, so nothing is gained by tuning it per machine.
const batchSize = 1024

// batchBuffers is how many batches circulate between the generator and
// RunCtx: one filling, one resolving, one in flight. Two left the stages
// waiting on each other (18–23 ms for the run above).
const batchBuffers = 3

// draw is one generated query: its arrival time, its kind and its name.
// A probe's name is only spelled, in text: interning it writes the
// resolver, so RunCtx parses it.
type draw struct {
	at   float64
	kind QueryKind
	name Name
}

// RunCtx drives r for the given number of simulated days at the
// population's aggregate rate, invoking onResult (if non-nil) per user
// query. The query arrival process is Poisson. Generated names reach the
// resolver typed; only Chromium probes are spelled, and the resolver
// interns them. A traced run records the whole query loop as one
// "dnssim.client_run" span under the caller's span.
//
// The client's draws never read the resolver, so a generator goroutine
// makes them, in the order of the serial loop, on its own clock started
// at r.Now() (onResult must not move r's clock), and hands them over in
// batches; the calling goroutine advances r, resolves, counts and calls
// onResult in stream order. The generator has exited when RunCtx returns
// or panics.
func (c *Client) RunCtx(ctx context.Context, r *Resolver, days float64, onResult func(kind QueryKind, res QueryResult)) RunStats {
	_, span := obs.StartSpanCtx(ctx, "dnssim.client_run")
	defer span.End()
	// Each channel holds every buffer, so no send blocks; only the
	// generator's wait for a free buffer needs stop.
	free := make(chan []draw, batchBuffers)
	full := make(chan []draw, batchBuffers)
	for i := 0; i < batchBuffers; i++ {
		free <- make([]draw, 0, batchSize)
	}
	stop := make(chan struct{})
	go c.generate(r.Now(), r.Now()+days*86400, free, full, stop)
	defer func() {
		close(stop)
		for range full { // until the generator closes full on its way out
		}
	}()

	var stats RunStats
	for batch := range full {
		for i := range batch {
			d := &batch[i]
			r.AdvanceTo(d.at)
			name := d.name
			if d.kind == QueryProbe {
				name = r.parseName(name.text)
			}
			res := r.resolve(name, false)
			stats.Queries++
			obsClientQueries.Inc()
			switch d.kind {
			case QueryProbe:
				stats.ProbeQueries++
				obsProbeQueries.Inc()
			case QueryJunk:
				stats.JunkQueries++
				obsJunkQueries.Inc()
			default:
				stats.ValidQueries++
			}
			stats.TotalLatencyMs += res.LatencyMs
			stats.RootLatencyMs += res.RootLatencyMs
			if onResult != nil {
				onResult(d.kind, res)
			}
		}
		free <- batch
	}
	return stats
}

// generate draws RunCtx's query stream from c's RNG: each arrival, then
// its kind, then its name, up to and including the first arrival past
// end, which it discards. It fills buffers taken from free and sends
// them on full, returns early once stop closes, and closes full.
func (c *Client) generate(now, end float64, free <-chan []draw, full chan<- []draw, stop <-chan struct{}) {
	defer close(full)
	totalRate := float64(c.cfg.Users) *
		(c.cfg.QueriesPerUserPerDay + chromiumProbesPerUserPerDay + junkPerUserPerDay) / 86400
	pProbe := chromiumProbesPerUserPerDay /
		(c.cfg.QueriesPerUserPerDay + chromiumProbesPerUserPerDay + junkPerUserPerDay)
	pJunk := junkPerUserPerDay /
		(c.cfg.QueriesPerUserPerDay + chromiumProbesPerUserPerDay + junkPerUserPerDay)

	for done := false; !done; {
		var batch []draw
		select {
		case batch = <-free:
		case <-stop:
			return
		}
		batch = batch[:0]
		for len(batch) < batchSize {
			dt := c.rng.ExpFloat64() / totalRate
			next := now + dt
			if next > end {
				done = true
				break
			}
			now = next
			d := draw{at: next}
			u := c.rng.Float64()
			switch {
			case u < pProbe:
				d.kind, d.name = QueryProbe, Name{kind: nameOther, text: c.sampleChromiumProbe()}
			case u < pProbe+pJunk:
				d.kind, d.name = QueryJunk, c.sampleJunk()
			default:
				d.kind, d.name = QueryValid, c.sampleDomain()
			}
			batch = append(batch, d)
		}
		full <- batch
	}
}

// QueryKind classifies a generated user query.
type QueryKind uint8

// Query kinds.
const (
	QueryValid QueryKind = iota
	QueryProbe
	QueryJunk
)

// String implements fmt.Stringer.
func (k QueryKind) String() string {
	switch k {
	case QueryValid:
		return "valid"
	case QueryProbe:
		return "probe"
	case QueryJunk:
		return "junk"
	default:
		return fmt.Sprintf("QueryKind(%d)", uint8(k))
	}
}

// StandardUpstreams builds a plausible Upstreams for local-perspective
// experiments: the roots at the provided base RTTs, TLD servers mostly
// nearby (anycast gTLD networks), and authoritatives spread worldwide with
// a long tail.
func StandardUpstreams(rootBaseRTTs []float64, rng *rand.Rand) Upstreams {
	return Upstreams{
		RootRTT: func(letter int) float64 {
			base := rootBaseRTTs[letter%len(rootBaseRTTs)]
			return jitterRTT(base, rng)
		},
		TLDRTT: func() float64 {
			return jitterRTT(8+rng.ExpFloat64()*15, rng)
		},
		AuthRTT: func(domain Name) float64 {
			// Deterministic per-domain base: some domains are far away.
			base := 3 + float64(domain.hash(216613626)%240)
			return jitterRTT(base, rng)
		},
		AuthTimeoutProb: 0.004,
	}
}

func jitterRTT(base float64, rng *rand.Rand) float64 {
	v := base * (1 + 0.1*rng.NormFloat64())
	return math.Max(0.2, v)
}
