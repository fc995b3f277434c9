// Package stage declares the world build as an explicit DAG of typed
// stages: each stage names the upstream stages it consumes, whether its
// output is persisted in the artifact store, and a codec version. The
// world engine walks this graph demand-first — an experiment declares the
// stages it Needs and nothing else is computed — and derives each stage's
// content-addressed artifact key from the configuration hash plus the
// keys of everything upstream, so any input change (config, seed, scale,
// codec bump, upstream codec bump) invalidates exactly the affected
// suffix of the graph.
package stage

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
)

// ID names one stage of the world build.
type ID string

// The stages of the world build, in canonical (topological) order.
const (
	// Regions generates the geographic regions.
	Regions ID = "regions"
	// Topology builds the whole AS graph on the regions: the hierarchy,
	// the public DNS hosts, the letters' site hosts and the CDN's network.
	Topology ID = "topology"
	// Population places recursives and users in the graph.
	Population ID = "population"
	// Zone generates the root zone (TLD inventory).
	Zone ID = "zone"
	// Rates derives per-recursive daily query-rate profiles.
	Rates ID = "rates"
	// Letters deploys the root letters on their site hosts.
	Letters ID = "letters"
	// Routes builds the campaign's route table: every letter's route
	// from every recursive source AS, with its base RTT.
	Routes ID = "routes"
	// Campaign assembles the DITL campaign columns.
	Campaign ID = "campaign"
	// CDN builds the CDN's anycast rings on its network.
	CDN ID = "cdn"
	// UserCounts builds the CDN and APNIC user-count datasets.
	UserCounts ID = "usercounts"
	// Atlas deploys the RIPE-Atlas-like probe platform.
	Atlas ID = "atlas"
	// Locations derives the ⟨region, AS⟩ user locations.
	Locations ID = "locations"
	// ServerLogs measures every location against every ring server-side.
	ServerLogs ID = "server_logs"
	// ClientRows measures every location against every ring client-side.
	ClientRows ID = "client_rows"
	// Join computes the /24-level DITL∩CDN join.
	Join ID = "join"
)

// Info describes one stage's position in the graph.
type Info struct {
	ID ID
	// Deps are the upstream stages the compute path consumes. Key
	// derivation folds over them in declared order, so reordering deps is
	// a (deliberate) cache-invalidating change.
	Deps []ID
	// LoadDeps is the subset of Deps that must be materialized even when
	// the stage's artifact is loaded from the store (decoding reattaches
	// pointers into them). Stages in Deps but not LoadDeps are skipped on
	// a cache hit — that skip is where warm starts win.
	LoadDeps []ID
	// Persisted marks stages whose output has a binary codec and lives in
	// the artifact store under -cache-dir.
	Persisted bool
	// Version is the stage's codec/algorithm version. Bumping it changes
	// the stage's key (and, transitively, every downstream key), so old
	// blobs are simply never looked up again.
	Version int
}

// all lists every stage in topological order. Topology builds the whole
// AS graph, including the hosts and peering the population, letters and
// CDN stages build on, and no other stage writes it.
var all = []Info{
	{ID: Regions, Version: 1},
	{ID: Topology, Deps: []ID{Regions}, Version: 1},
	{ID: Population, Deps: []ID{Topology}, Version: 1},
	{ID: Zone, Version: 1},
	{ID: Rates, Deps: []ID{Population, Zone}, LoadDeps: []ID{Population}, Persisted: true, Version: 1},
	{ID: Letters, Deps: []ID{Topology}, Version: 1},
	{ID: Routes, Deps: []ID{Letters, Population}, LoadDeps: []ID{Letters, Population}, Persisted: true, Version: 2},
	{ID: Campaign, Deps: []ID{Letters, Population, Zone, Rates, Routes},
		LoadDeps: []ID{Letters, Population, Zone, Rates, Routes}, Persisted: true, Version: 2},
	{ID: CDN, Deps: []ID{Topology}, Version: 1},
	{ID: UserCounts, Deps: []ID{Topology, Population}, Version: 1},
	{ID: Atlas, Deps: []ID{Topology}, Version: 1},
	{ID: Locations, Deps: []ID{Topology}, Version: 1},
	{ID: ServerLogs, Deps: []ID{CDN, Locations}, Persisted: true, Version: 1},
	{ID: ClientRows, Deps: []ID{CDN, Locations}, Persisted: true, Version: 1},
	{ID: Join, Deps: []ID{Campaign, UserCounts}, Persisted: true, Version: 1},
}

var byID = func() map[ID]Info {
	m := make(map[ID]Info, len(all))
	for _, in := range all {
		for _, d := range in.Deps {
			if _, ok := m[d]; !ok {
				panic(fmt.Sprintf("stage: %s depends on %s, which is not declared earlier (cycle or typo)", in.ID, d))
			}
		}
		for _, d := range in.LoadDeps {
			found := false
			for _, dd := range in.Deps {
				if d == dd {
					found = true
					break
				}
			}
			if !found {
				panic(fmt.Sprintf("stage: %s load-dep %s is not one of its deps", in.ID, d))
			}
		}
		if _, dup := m[in.ID]; dup {
			panic(fmt.Sprintf("stage: %s declared twice", in.ID))
		}
		m[in.ID] = in
	}
	return m
}()

// All returns every stage in topological order (deps strictly before
// dependents).
func All() []ID {
	out := make([]ID, len(all))
	for i, in := range all {
		out[i] = in.ID
	}
	return out
}

// Get returns the stage's Info; ok is false for unknown IDs.
func Get(id ID) (Info, bool) {
	in, ok := byID[id]
	return in, ok
}

// Valid reports whether id names a declared stage.
func Valid(id ID) bool {
	_, ok := byID[id]
	return ok
}

// Closure returns the transitive dependency closure of ids (ids
// included), in topological order. Unknown IDs are ignored — callers
// validate separately via Valid.
func Closure(ids ...ID) []ID {
	want := map[ID]bool{}
	var mark func(id ID)
	mark = func(id ID) {
		if want[id] {
			return
		}
		in, ok := byID[id]
		if !ok {
			return
		}
		want[id] = true
		for _, d := range in.Deps {
			mark(d)
		}
	}
	for _, id := range ids {
		mark(id)
	}
	out := make([]ID, 0, len(want))
	for _, in := range all {
		if want[in.ID] {
			out = append(out, in.ID)
		}
	}
	return out
}

// Keys derives every stage's content-addressed artifact key from the
// configuration hash: key = H(id, version, cfgHash, dep keys...), folded
// in topological order so an upstream change reaches every dependent.
func Keys(cfgHash string) map[ID]string {
	keys := make(map[ID]string, len(all))
	for _, in := range all {
		h := sha256.New()
		h.Write([]byte("anycastctx/stage\x00"))
		h.Write([]byte(in.ID))
		h.Write([]byte{0})
		h.Write([]byte(strconv.Itoa(in.Version)))
		h.Write([]byte{0})
		h.Write([]byte(cfgHash))
		for _, d := range in.Deps {
			h.Write([]byte{0})
			h.Write([]byte(keys[d]))
		}
		keys[in.ID] = hex.EncodeToString(h.Sum(nil))
	}
	return keys
}
