package webmodel

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConnRTTs(t *testing.T) {
	tests := []struct {
		bytes, win, want int
	}{
		{0, 15000, 0},
		{-5, 15000, 0},
		{1, 15000, 1},
		{15000, 15000, 1},
		{15001, 15000, 1}, // ceil(log2(1.0000...)) = 1
		{30001, 15000, 2},
		{60001, 15000, 3},
		{15000 * 1024, 15000, 10},
		{100, 0, 1}, // default window kicks in
	}
	for _, tt := range tests {
		if got := ConnRTTs(tt.bytes, tt.win); got != tt.want {
			t.Errorf("ConnRTTs(%d, %d) = %d, want %d", tt.bytes, tt.win, got, tt.want)
		}
	}
}

func TestConnRTTsMonotone(t *testing.T) {
	prop := func(a, b uint32) bool {
		x, y := int(a%(1<<26)), int(b%(1<<26))
		if x > y {
			x, y = y, x
		}
		return ConnRTTs(x, 15000) <= ConnRTTs(y, 15000)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestPageRTTsEmpty(t *testing.T) {
	if got := PageRTTs(nil, 15000); got != 0 {
		t.Errorf("empty page = %d", got)
	}
}

func TestPageRTTsSingleConnection(t *testing.T) {
	conns := []Connection{{Bytes: 120000, Start: 0, End: 1}}
	want := ConnRTTs(120000, 15000) + HandshakeRTTs
	if got := PageRTTs(conns, 15000); got != want {
		t.Errorf("PageRTTs = %d, want %d", got, want)
	}
}

func TestPageRTTsOverlapNotDoubleCounted(t *testing.T) {
	// Two fully overlapping connections: only the larger counts.
	conns := []Connection{
		{Bytes: 200000, Start: 0, End: 2},
		{Bytes: 150000, Start: 0.5, End: 1.5},
	}
	want := ConnRTTs(200000, 15000) + HandshakeRTTs
	if got := PageRTTs(conns, 15000); got != want {
		t.Errorf("PageRTTs = %d, want %d", got, want)
	}
	// Two disjoint connections: both count.
	conns2 := []Connection{
		{Bytes: 200000, Start: 0, End: 1},
		{Bytes: 150000, Start: 2, End: 3},
	}
	want2 := ConnRTTs(200000, 15000) + ConnRTTs(150000, 15000) + HandshakeRTTs
	if got := PageRTTs(conns2, 15000); got != want2 {
		t.Errorf("disjoint PageRTTs = %d, want %d", got, want2)
	}
}

func TestPageRTTsParallelismLowersCount(t *testing.T) {
	// Serializing the same connections must never yield fewer RTTs than
	// overlapping them.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(8)
		parallel := make([]Connection, n)
		serial := make([]Connection, n)
		for i := 0; i < n; i++ {
			b := 10000 + rng.Intn(500000)
			parallel[i] = Connection{Bytes: b, Start: 0, End: 1}
			serial[i] = Connection{Bytes: b, Start: float64(i), End: float64(i) + 0.5}
		}
		if PageRTTs(parallel, 15000) > PageRTTs(serial, 15000) {
			t.Fatal("parallel page counted more RTTs than serial")
		}
	}
}

func TestRunSweepTenRTTBound(t *testing.T) {
	// Appendix C: only a few percent of loads fit within 10 RTTs; ~90%
	// fit within 20; hence 10 is a sound lower bound.
	rng := rand.New(rand.NewSource(5))
	res := RunSweep(rng)
	if len(res.RTTsPerLoad) != 9*20 {
		t.Fatalf("loads = %d", len(res.RTTsPerLoad))
	}
	if res.LowerBound != 10 {
		t.Errorf("lower bound = %d", res.LowerBound)
	}
	if res.FracWithin10 > 0.35 {
		t.Errorf("%.2f of loads within 10 RTTs; bound not conservative", res.FracWithin10)
	}
	if res.FracWithin20 < 0.5 {
		t.Errorf("only %.2f of loads within 20 RTTs", res.FracWithin20)
	}
	if res.FracWithin10 > res.FracWithin20 {
		t.Error("CDF not monotone")
	}
	for _, r := range res.RTTsPerLoad {
		if r < HandshakeRTTs {
			t.Fatalf("load with %d RTTs below handshake floor", r)
		}
	}
}

func TestGeneratePage(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		p := GeneratePage("p", rng)
		if len(p.Conns) == 0 {
			t.Fatal("page with no connections")
		}
		for _, c := range p.Conns {
			if c.Bytes <= 0 {
				t.Fatal("connection with no bytes")
			}
			if c.End <= c.Start {
				t.Fatal("connection with non-positive duration")
			}
		}
	}
}

func TestBrowsingDayShares(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := TypicalBrowsingDay(rng)
	if d.PageLoads < 60 || d.PageLoadMs < 1500 || d.ActiveBrowsingMs < 2.5*3600*1000 {
		t.Errorf("implausible day %+v", d)
	}
	// With ~1.5 root queries/day at ~50 ms each, shares should be tiny:
	// ~1-2% of page-load time, well under 0.1% of browsing (§4.3).
	ofLoad, ofBrowse := d.RootShare(75)
	if ofLoad <= 0 || ofLoad > 0.05 {
		t.Errorf("root share of page load = %v", ofLoad)
	}
	if ofBrowse <= 0 || ofBrowse > 0.001 {
		t.Errorf("root share of browsing = %v", ofBrowse)
	}
	// Zero-division safety.
	var zero BrowsingDay
	a, b := zero.RootShare(100)
	if a != 0 || b != 0 {
		t.Error("zero day should yield zero shares")
	}
}
