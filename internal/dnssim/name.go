package dnssim

import (
	"slices"
	"strconv"
	"strings"
)

// nameKind says how a Name is spelled.
type nameKind uint8

const (
	nameSite  nameKind = iota // "site<num>.<tld>": a client's valid query
	nameJunk                  // "host<num>.<junk suffix>": a client's junk query
	nameTLD                   // a bare TLD
	nameOther                 // any other spelling, under a per-resolver ID
)

// prefix is the fixed part of a generated name's first label, or "" for
// a name kept whole.
func (k nameKind) prefix() string {
	switch k {
	case nameSite:
		return "site"
	case nameJunk:
		return "host"
	}
	return ""
}

// Name is a query name in the resolver's typed form. A name the client
// generates keeps its parts: the TLD index and site number, or the junk
// suffix and host number. It is spelled out only when a trace records it.
// Any other name carries its string and the ID its resolver interned for
// it. Within one resolver, two Names for one spelling are equal.
type Name struct {
	kind nameKind
	// idx is the zone index of a site's TLD or a bare TLD, or the index
	// of a junk suffix in junkSuffixes.
	idx uint32
	// num is the site or host number, or the interned ID of a nameOther.
	num uint64
	// text is what follows "<prefix><num>." in a generated name, and the
	// whole spelling otherwise.
	text string
}

// String spells the name.
func (n Name) String() string {
	if p := n.kind.prefix(); p != "" {
		return p + strconv.FormatUint(n.num, 10) + "." + n.text
	}
	return n.text
}

// hash folds the spelled name into an FNV-1a hash that starts at basis,
// byte for byte as over String, without building the string.
func (n Name) hash(basis uint32) uint32 {
	h := basis
	if p := n.kind.prefix(); p != "" {
		h = fnv1a(h, p)
		var buf [20]byte
		for _, c := range strconv.AppendUint(buf[:0], n.num, 10) {
			h = (h ^ uint32(c)) * 16777619
		}
		h = fnv1a(h, ".")
	}
	return fnv1a(h, n.text)
}

func fnv1a(h uint32, s string) uint32 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

// key packs n's identity into the resolver's cache key, idx<<34 |
// num<<2 | kind, so the cache map takes Go's 64-bit key fast path. A
// generated name's number fits the 32 bits between kind and idx:
// parseName interns any larger one, and the client draws none. An
// interned ID has idx 0, so its key stays unique below 2^62.
func (n Name) key() uint64 {
	return uint64(n.idx)<<34 | n.num<<2 | uint64(n.kind)
}

// parseName maps a spelled name onto the Name the client would generate
// for it, so the string API and the client share one cache entry per
// name. A trailing dot is dropped. "site<n>.<tld>" and "host<n>.<junk
// suffix>" map to generated names when n is in canonical decimal, the
// only form the client spells, and below 2^32, the bound of the cache
// key's number field; anything else is interned.
func (r *Resolver) parseName(domain string) Name {
	domain = strings.TrimSuffix(domain, ".")
	dot := strings.LastIndexByte(domain, '.')
	last := domain[dot+1:]
	if tld, ok := r.zone.byName[last]; ok {
		if dot < 0 {
			return Name{kind: nameTLD, idx: uint32(tld), text: r.zone.TLDs[tld].Name}
		}
		if num, ok := labelNum(domain[:dot], "site"); ok {
			return Name{kind: nameSite, idx: uint32(tld), num: num, text: r.zone.TLDs[tld].Name}
		}
	}
	if j := slices.Index(junkSuffixes, last); j >= 0 && dot >= 0 {
		if num, ok := labelNum(domain[:dot], "host"); ok {
			return Name{kind: nameJunk, idx: uint32(j), num: num, text: junkSuffixes[j]}
		}
	}
	id, ok := r.names[domain]
	if !ok {
		id = uint64(len(r.names))
		r.names[domain] = id
	}
	return Name{kind: nameOther, num: id, text: domain}
}

// labelNum parses label as prefix followed by a number below 2^32 in
// canonical decimal: digits only, with no leading zero.
func labelNum(label, prefix string) (uint64, bool) {
	digits, ok := strings.CutPrefix(label, prefix)
	if !ok || digits == "" || (digits[0] == '0' && len(digits) > 1) {
		return 0, false
	}
	n, err := strconv.ParseUint(digits, 10, 32)
	return n, err == nil
}

// tldOf returns the zone index of n's last label.
func (r *Resolver) tldOf(n Name) (int, bool) {
	if n.kind == nameSite || n.kind == nameTLD {
		return int(n.idx), true
	}
	i, ok := r.zone.byName[lastLabel(n.text)]
	return i, ok
}
