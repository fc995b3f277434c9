package ipaddr

import (
	"fmt"
	"net/netip"
	"testing"
	"testing/quick"
)

// parseAddr parses dotted-quad notation.
func parseAddr(s string) (Addr, error) {
	ip, err := netip.ParseAddr(s)
	if err != nil {
		return 0, fmt.Errorf("ipaddr: %w", err)
	}
	if !ip.Is4() {
		return 0, fmt.Errorf("ipaddr: %q is not IPv4", s)
	}
	b := ip.As4()
	return AddrFrom4(b[0], b[1], b[2], b[3]), nil
}

// parsePrefix parses "a.b.c.d/len".
func parsePrefix(s string) (Prefix, error) {
	p, err := netip.ParsePrefix(s)
	if err != nil {
		return Prefix{}, fmt.Errorf("ipaddr: %w", err)
	}
	if !p.Addr().Is4() {
		return Prefix{}, fmt.Errorf("ipaddr: %q is not IPv4", s)
	}
	b := p.Addr().As4()
	return NewPrefix(AddrFrom4(b[0], b[1], b[2], b[3]), uint8(p.Bits()))
}

func TestAddrRoundTrip(t *testing.T) {
	tests := []string{"0.0.0.0", "1.2.3.4", "10.0.0.1", "192.168.255.254", "255.255.255.255"}
	for _, s := range tests {
		a, err := parseAddr(s)
		if err != nil {
			t.Fatalf("parseAddr(%q): %v", s, err)
		}
		if a.String() != s {
			t.Errorf("round trip %q -> %q", s, a.String())
		}
	}
	if _, err := parseAddr("::1"); err == nil {
		t.Error("accepted IPv6 address")
	}
	if _, err := parseAddr("bogus"); err == nil {
		t.Error("accepted garbage")
	}
}

func TestAddrRoundTripProperty(t *testing.T) {
	prop := func(v uint32) bool {
		a := Addr(v)
		b, err := parseAddr(a.String())
		return err == nil && b == a
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestPrefixParseAndContains(t *testing.T) {
	p, err := parsePrefix("10.20.0.0/16")
	if err != nil {
		t.Fatal(err)
	}
	in, _ := parseAddr("10.20.99.1")
	out, _ := parseAddr("10.21.0.1")
	if !p.Contains(in) {
		t.Error("should contain in-range address")
	}
	if p.Contains(out) {
		t.Error("should not contain out-of-range address")
	}
	if _, err := parsePrefix("junk"); err == nil {
		t.Error("accepted garbage prefix")
	}
	if _, err := parsePrefix("::/0"); err == nil {
		t.Error("accepted IPv6 prefix")
	}
	if _, err := NewPrefix(0, 33); err == nil {
		t.Error("accepted /33")
	}
}

func TestPrefixMasking(t *testing.T) {
	p, err := NewPrefix(AddrFrom4(10, 20, 30, 40), 16)
	if err != nil {
		t.Fatal(err)
	}
	if p.Addr != AddrFrom4(10, 20, 0, 0) {
		t.Errorf("prefix addr not masked: %s", p.Addr)
	}
	zero, err := NewPrefix(AddrFrom4(9, 9, 9, 9), 0)
	if err != nil {
		t.Fatal(err)
	}
	if zero.Addr != 0 {
		t.Errorf("/0 not fully masked: %s", zero.Addr)
	}
	if !zero.Contains(AddrFrom4(255, 1, 2, 3)) {
		t.Error("/0 should contain everything")
	}
}

func TestPrefixNth(t *testing.T) {
	p := MustPrefix(AddrFrom4(192, 0, 2, 0), 24)
	if p.NumAddrs() != 256 {
		t.Errorf("NumAddrs = %d", p.NumAddrs())
	}
	if p.Nth(0) != AddrFrom4(192, 0, 2, 0) || p.Nth(255) != AddrFrom4(192, 0, 2, 255) {
		t.Error("Nth endpoints wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("Nth out of range did not panic")
		}
	}()
	p.Nth(256)
}

func TestIsSpecialPurpose(t *testing.T) {
	special := []string{"10.1.2.3", "192.168.0.1", "172.16.5.5", "127.0.0.1", "169.254.1.1", "100.64.0.1", "224.0.0.1", "240.0.0.1", "0.1.2.3"}
	for _, s := range special {
		a, _ := parseAddr(s)
		if !IsSpecialPurpose(a) {
			t.Errorf("%s should be special purpose", s)
		}
	}
	public := []string{"8.8.8.8", "1.1.1.1", "199.7.83.42", "198.41.0.4"}
	for _, s := range public {
		a, _ := parseAddr(s)
		if IsSpecialPurpose(a) {
			t.Errorf("%s should be public", s)
		}
	}
}

func TestKey24(t *testing.T) {
	a, _ := parseAddr("198.51.100.200")
	b, _ := parseAddr("198.51.100.1")
	c, _ := parseAddr("198.51.101.1")
	if Key24(a) != Key24(b) {
		t.Error("same /24 should share key")
	}
	if Key24(a) == Key24(c) {
		t.Error("different /24s should differ")
	}
	if Key24(a).Prefix().String() != "198.51.100.0/24" {
		t.Errorf("key prefix = %s", Key24(a).Prefix())
	}
	if Key24(a).String() != "198.51.100.0/24" {
		t.Errorf("key string = %s", Key24(a))
	}
}

func TestSlash24(t *testing.T) {
	a, _ := parseAddr("203.0.114.77")
	p := Key24(a).Prefix()
	if p.String() != "203.0.114.0/24" {
		t.Errorf("/24 of %s = %s", a, p)
	}
	if !p.Contains(a) {
		t.Error("slash24 does not contain its address")
	}
}

func TestPoolSkipsReserved(t *testing.T) {
	p := NewPool()
	// Allocate enough to cross the 10/8 boundary: 1/8..9/8 is ~9*65536 /24s.
	const n = 10 * 65536
	prefixes, err := p.AllocSlash24s(n)
	if err != nil {
		t.Fatal(err)
	}
	if len(prefixes) != n {
		t.Fatalf("got %d prefixes", len(prefixes))
	}
	seen := map[Addr]bool{}
	for _, pfx := range prefixes {
		if pfx.Bits != 24 {
			t.Fatalf("non-/24 allocated: %s", pfx)
		}
		if IsSpecialPurpose(pfx.Addr) {
			t.Fatalf("reserved space allocated: %s", pfx)
		}
		if seen[pfx.Addr] {
			t.Fatalf("duplicate allocation: %s", pfx)
		}
		seen[pfx.Addr] = true
	}
}
