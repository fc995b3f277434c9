package ipaddr

import "fmt"

// Slash24Key is a compact comparable key for /24 aggregation maps.
type Slash24Key uint32

// Key24 returns the aggregation key for a's /24.
func Key24(a Addr) Slash24Key { return Slash24Key(a >> 8) }

// Prefix returns the /24 prefix for the key.
func (k Slash24Key) Prefix() Prefix { return Prefix{Addr: Addr(k) << 8, Bits: 24} }

// String implements fmt.Stringer.
func (k Slash24Key) String() string { return k.Prefix().String() }

// Pool hands out non-overlapping /24-aligned prefixes from public address
// space, used when assigning address blocks to synthetic ASes. It skips
// special-purpose ranges.
type Pool struct {
	next Addr
}

// NewPool starts allocation at 1.0.0.0 (0/8 is reserved).
func NewPool() *Pool {
	return &Pool{next: AddrFrom4(1, 0, 0, 0)}
}

// AllocSlash24s returns n consecutive public /24s, skipping reserved space.
func (p *Pool) AllocSlash24s(n int) ([]Prefix, error) {
	out := make([]Prefix, 0, n)
	for len(out) < n {
		if p.next >= AddrFrom4(224, 0, 0, 0) {
			return nil, fmt.Errorf("ipaddr: address pool exhausted after %d allocations", len(out))
		}
		pfx := Prefix{Addr: p.next, Bits: 24}
		p.next += 256
		if IsSpecialPurpose(pfx.Addr) {
			continue
		}
		out = append(out, pfx)
	}
	return out, nil
}
