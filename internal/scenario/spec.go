// Package scenario is the what-if engine: it applies declarative
// counterfactual mutations (withdraw or add an anycast site, upgrade
// peering, resize a CDN ring, swap two letters' deployments, surge
// traffic) to a built world as an overlay, evaluates the mutated world
// with incremental catchment recomputation, and renders before/after
// delta tables.
//
// The incremental path never rebuilds what a mutation cannot touch: each
// mutated deployment's route cache is seeded from the base world's,
// keeping exactly the entries whose BGP decision is provably unchanged
// (bgp.Resolver.SeedFrom works them out from the two resolvers), and
// the DITL campaign is rebased by ditl.Campaign.Rebase, whose reuse
// rules carry every cell whose inputs the mutation left bit-identical.
// The contract — enforced by the equivalence test suite and the
// -scenario-oracle flag — is that the incremental result is
// byte-identical to rebuilding the mutated world from scratch.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Kind names one mutation type.
type Kind string

// The supported mutation kinds.
const (
	// KindWithdrawSite removes one site from a letter's deployment.
	KindWithdrawSite Kind = "withdraw_site"
	// KindAddSite appends one global site to a letter's deployment.
	KindAddSite Kind = "add_site"
	// KindUpgradePeering gives the heaviest eyeball ASes settlement-free
	// peering with a letter's site hosts, or with the CDN.
	KindUpgradePeering Kind = "upgrade_peering"
	// KindResizeRing rebuilds a CDN ring at a different front-end count.
	KindResizeRing Kind = "resize_ring"
	// KindSwapLetters exchanges two letters' physical deployments.
	KindSwapLetters Kind = "swap_letters"
	// KindTrafficSurge scales every recursive's query volume.
	KindTrafficSurge Kind = "traffic_surge"
)

// Mutation is one declarative change to the base world. Site IDs always
// refer to the base world's numbering.
type Mutation struct {
	Kind Kind `json:"kind"`
	// Target is the deployment the mutation applies to: a letter name
	// for withdraw_site/add_site/swap_letters, a ring name for
	// resize_ring, and a letter name, ring name, or "cdn" for
	// upgrade_peering (anything CDN-flavored upgrades all rings, which
	// share one network).
	Target string `json:"target,omitempty"`
	// Site is the base site ID to withdraw (withdraw_site).
	Site int `json:"site,omitempty"`
	// With is the second letter of a swap_letters pair.
	With string `json:"with,omitempty"`
	// Size is the new front-end count (resize_ring).
	Size int `json:"size,omitempty"`
	// TopEyeballs is how many of the heaviest eyeball ASes gain peering
	// (upgrade_peering; default 100).
	TopEyeballs int `json:"top_eyeballs,omitempty"`
	// Factor scales query volume (traffic_surge; must be > 0).
	Factor float64 `json:"factor,omitempty"`
}

// String renders the mutation's parameters for the report header.
func (m Mutation) String() string {
	switch m.Kind {
	case KindWithdrawSite:
		return fmt.Sprintf("withdraw site %d of %s", m.Site, m.Target)
	case KindAddSite:
		return fmt.Sprintf("add a global site to %s", m.Target)
	case KindUpgradePeering:
		n := m.TopEyeballs
		if n == 0 {
			n = DefaultTopEyeballs
		}
		return fmt.Sprintf("peer top %d eyeballs with %s", n, m.Target)
	case KindResizeRing:
		return fmt.Sprintf("resize %s to %d front-ends", m.Target, m.Size)
	case KindSwapLetters:
		return fmt.Sprintf("swap deployments of %s and %s", m.Target, m.With)
	case KindTrafficSurge:
		return fmt.Sprintf("scale query volume by %g", m.Factor)
	}
	return string(m.Kind)
}

// DefaultTopEyeballs is upgrade_peering's eyeball count when the spec
// leaves TopEyeballs zero.
const DefaultTopEyeballs = 100

// Spec is one named what-if scenario: a mutation list applied to the
// base world in order.
type Spec struct {
	Name        string     `json:"name"`
	Description string     `json:"description,omitempty"`
	Mutations   []Mutation `json:"mutations"`
}

// Parse decodes a JSON spec, rejecting unknown fields so a typo'd key
// fails loudly instead of silently evaluating the base world, and
// rejecting anything after the spec object so a file holding two specs
// is not silently evaluated as its first.
func Parse(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: parsing spec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Spec{}, fmt.Errorf("scenario: parsing spec: trailing data after the spec object")
	}
	if s.Name == "" {
		return Spec{}, fmt.Errorf("scenario: spec has no name")
	}
	for i, m := range s.Mutations {
		if m.Kind == "" {
			return Spec{}, fmt.Errorf("scenario: mutation %d has no kind", i)
		}
	}
	return s, nil
}

// ParseFile reads and parses a JSON spec file.
func ParseFile(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return Spec{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Builtins returns the shipped example scenarios, sorted by name. Site
// IDs refer to the 2018 letter inventory (the default world).
func Builtins() []Spec {
	specs := []Spec{
		{
			Name:        "withdraw-b-site",
			Description: "B loses one of its two sites (half its anycast capacity)",
			Mutations:   []Mutation{{Kind: KindWithdrawSite, Target: "B", Site: 1}},
		},
		{
			Name:        "withdraw-f-site",
			Description: "F loses its last local site (1 of 141)",
			Mutations:   []Mutation{{Kind: KindWithdrawSite, Target: "F", Site: 140}},
		},
		{
			Name:        "add-site-b",
			Description: "B adds a third global site at the heaviest uncovered region",
			Mutations:   []Mutation{{Kind: KindAddSite, Target: "B"}},
		},
		{
			Name:        "peer-more",
			Description: "the 150 heaviest eyeball ASes peer directly with B's hosts",
			Mutations:   []Mutation{{Kind: KindUpgradePeering, Target: "B", TopEyeballs: 150}},
		},
		{
			Name:        "ring-r28-resize",
			Description: "the CDN's smallest ring doubles to 56 front-ends",
			Mutations:   []Mutation{{Kind: KindResizeRing, Target: "R28", Size: 56}},
		},
		{
			Name:        "swap-b-f",
			Description: "B and F exchange physical deployments (2 sites vs 141)",
			Mutations:   []Mutation{{Kind: KindSwapLetters, Target: "B", With: "F"}},
		},
		{
			Name:        "surge-2x",
			Description: "every recursive doubles its query volume",
			Mutations:   []Mutation{{Kind: KindTrafficSurge, Factor: 2}},
		},
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].Name < specs[j].Name })
	return specs
}

// Builtin returns the named builtin scenario.
func Builtin(name string) (Spec, bool) {
	for _, s := range Builtins() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// BuiltinNames lists the builtin scenario names, sorted.
func BuiltinNames() []string {
	var names []string
	for _, s := range Builtins() {
		names = append(names, s.Name)
	}
	return names
}
