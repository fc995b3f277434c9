// Package ipaddr provides the IPv4 addressing substrate: compact address
// and prefix types, /24 aggregation (the paper joins DITL query volumes and
// CDN user counts at the /24 level, §2.1), the IANA special-purpose
// registry filter, and the address pool synthetic ASes draw from. No
// IP→ASN or geolocation lookup is modelled: every recursive carries its
// ground-truth AS and location.
package ipaddr

import "fmt"

// Addr is an IPv4 address in host byte order. The simulator works purely in
// IPv4, matching the paper's analysis (IPv6 is excluded for lack of user
// data, §2.1).
type Addr uint32

// AddrFrom4 builds an Addr from dotted-quad octets.
func AddrFrom4(a, b, c, d byte) Addr {
	return Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// String renders the address in dotted-quad notation.
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// Prefix is an IPv4 CIDR prefix. The Addr is stored masked.
type Prefix struct {
	Addr Addr
	Bits uint8
}

// NewPrefix masks addr to bits and returns the prefix. Bits outside [0,32]
// are an error.
func NewPrefix(addr Addr, bits uint8) (Prefix, error) {
	if bits > 32 {
		return Prefix{}, fmt.Errorf("ipaddr: invalid prefix length %d", bits)
	}
	return Prefix{Addr: addr & mask(bits), Bits: bits}, nil
}

// MustPrefix is NewPrefix for constant inputs; it panics on invalid bits.
func MustPrefix(addr Addr, bits uint8) Prefix {
	p, err := NewPrefix(addr, bits)
	if err != nil {
		panic(err)
	}
	return p
}

func mask(bits uint8) Addr {
	if bits == 0 {
		return 0
	}
	return Addr(^uint32(0) << (32 - bits))
}

// Contains reports whether a falls inside p.
func (p Prefix) Contains(a Addr) bool {
	return a&mask(p.Bits) == p.Addr
}

// String renders CIDR notation.
func (p Prefix) String() string {
	return fmt.Sprintf("%s/%d", p.Addr, p.Bits)
}

// NumAddrs returns the number of addresses covered by p.
func (p Prefix) NumAddrs() uint64 {
	return uint64(1) << (32 - p.Bits)
}

// Nth returns the i-th address inside p. It panics if i is out of range;
// use NumAddrs to bound i.
func (p Prefix) Nth(i uint64) Addr {
	if i >= p.NumAddrs() {
		panic(fmt.Sprintf("ipaddr: address index %d out of range for %s", i, p))
	}
	return p.Addr + Addr(i)
}

// specialPurpose is the subset of the IANA IPv4 Special-Purpose Address
// Registry the paper's pre-processing removes (private space and other
// never-routed blocks account for 7% of DITL queries, §2.1).
var specialPurpose = []Prefix{
	MustPrefix(AddrFrom4(0, 0, 0, 0), 8),       // "this network"
	MustPrefix(AddrFrom4(10, 0, 0, 0), 8),      // RFC 1918
	MustPrefix(AddrFrom4(100, 64, 0, 0), 10),   // CGNAT
	MustPrefix(AddrFrom4(127, 0, 0, 0), 8),     // loopback
	MustPrefix(AddrFrom4(169, 254, 0, 0), 16),  // link-local
	MustPrefix(AddrFrom4(172, 16, 0, 0), 12),   // RFC 1918
	MustPrefix(AddrFrom4(192, 0, 0, 0), 24),    // IETF protocol assignments
	MustPrefix(AddrFrom4(192, 0, 2, 0), 24),    // TEST-NET-1
	MustPrefix(AddrFrom4(192, 168, 0, 0), 16),  // RFC 1918
	MustPrefix(AddrFrom4(198, 18, 0, 0), 15),   // benchmarking
	MustPrefix(AddrFrom4(198, 51, 100, 0), 24), // TEST-NET-2
	MustPrefix(AddrFrom4(203, 0, 113, 0), 24),  // TEST-NET-3
	MustPrefix(AddrFrom4(224, 0, 0, 0), 4),     // multicast
	MustPrefix(AddrFrom4(240, 0, 0, 0), 4),     // reserved
}

// IsSpecialPurpose reports whether a lies in private or otherwise reserved
// address space per the IANA special-purpose registry subset above.
func IsSpecialPurpose(a Addr) bool {
	for _, p := range specialPurpose {
		if p.Contains(a) {
			return true
		}
	}
	return false
}
