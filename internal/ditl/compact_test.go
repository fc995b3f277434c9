package ditl

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"testing"

	"anycastctx/internal/users"
)

// The compact column store (routeIdx/altSite/... plus shared route tables)
// replaced a [][]Assignment matrix. These tests pin the compacted path to
// independent references: direct route/latency recomputation, the serial
// join oracle, and byte-identical capture emission under buffer reuse.

// TestCompactMatchesReference recomputes every reachable cell's route and
// base RTT directly from the deployment and latency model and requires the
// deduplicated tables to agree exactly (same float bits: BaseRTTMs is a
// pure function of (AS, route), so dedup must be lossless).
func TestCompactMatchesReference(t *testing.T) {
	f := buildFixture(t)
	c := f.camp
	for li := range c.Letters {
		for ri := range f.pop.Recursives {
			rec := &f.pop.Recursives[ri]
			a := c.At(li, ri)
			rt, ok := c.Letters[li].Route(rec.ASN)
			if a.Reachable != ok {
				t.Fatalf("letter %d rec %d: Reachable=%v, route lookup ok=%v", li, ri, a.Reachable, ok)
			}
			if !ok {
				if a.NumSites() != 0 || a.BaseRTTMs != 0 {
					t.Fatalf("letter %d rec %d: unreachable cell carries data: %+v", li, ri, a)
				}
				continue
			}
			if !reflect.DeepEqual(a.Route, rt) {
				t.Fatalf("letter %d rec %d: route %+v, want %+v", li, ri, a.Route, rt)
			}
			if want := c.Model.BaseRTTMs(rec.ASN, rt); a.BaseRTTMs != want {
				t.Fatalf("letter %d rec %d: BaseRTTMs %v, want %v (exact)", li, ri, a.BaseRTTMs, want)
			}
			sites := a.Sites()
			if sites[0].SiteID != rt.SiteID {
				t.Fatalf("letter %d rec %d: favorite site %d, want route site %d", li, ri, sites[0].SiteID, rt.SiteID)
			}
			if a.NumSites() == 2 {
				if got := sites[0].Frac + sites[1].Frac; got != 1 {
					t.Fatalf("letter %d rec %d: split shares sum to %v", li, ri, got)
				}
			}
		}
	}
}

// TestAtIsolation checks the materialized view is a value: mutating one
// Assignment must not leak into the campaign store.
func TestAtIsolation(t *testing.T) {
	f := buildFixture(t)
	c := f.camp
	for ri := 0; ri < c.NumRecursives(); ri++ {
		a := c.At(0, ri)
		if !a.Reachable || a.NumSites() == 0 {
			continue
		}
		before := c.At(0, ri)
		a.Sites()[0].Frac = -123
		a.Route.SiteID = -7
		after := c.At(0, ri)
		if after.Sites()[0].Frac != before.Sites()[0].Frac || after.Route.SiteID != before.Route.SiteID {
			t.Fatal("mutating an Assignment leaked into the campaign")
		}
		return
	}
	t.Skip("no reachable cell in fixture")
}

// TestJoinCDNMatchesSerial pins the streaming (mark/prefix-sum/fill) join
// against the retained serial oracle, row for row, in both granularities.
func TestJoinCDNMatchesSerial(t *testing.T) {
	f := buildFixture(t)
	for _, byIP := range []bool{false, true} {
		got := f.camp.JoinCDNCtx(context.Background(), f.cdn, byIP)
		want := f.camp.joinCDNSerial(f.cdn, byIP)
		if got.ByIP != want.ByIP {
			t.Fatalf("byIP=%v: ByIP flag %v", byIP, got.ByIP)
		}
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("byIP=%v: %d rows, oracle %d", byIP, len(got.Rows), len(want.Rows))
		}
		for i := range got.Rows {
			if got.Rows[i] != want.Rows[i] {
				t.Fatalf("byIP=%v row %d: %+v, oracle %+v", byIP, i, got.Rows[i], want.Rows[i])
			}
		}
	}
}

// TestEmitSiteCaptureByteStable emits the same capture twice and requires
// identical bytes: the pooled scratch buffers (DNS encode, packet
// serialize, pcap writer) must never leak stale content into output.
func TestEmitSiteCaptureByteStable(t *testing.T) {
	f := buildFixture(t)
	emit := func() []byte {
		var buf bytes.Buffer
		if _, err := f.camp.EmitSiteCapture(&buf, 2, 0, 2000, 99); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := emit()
	for i := 0; i < 3; i++ {
		if again := emit(); !bytes.Equal(first, again) {
			t.Fatalf("capture emission not byte-stable on pass %d (%d vs %d bytes)", i+2, len(first), len(again))
		}
	}
}

var (
	benchCampaign *Campaign
	benchJoin     *Join
)

// BenchmarkCampaignBuild measures campaign assembly allocation and, as a
// custom metric, the live bytes the finished campaign retains (the number
// the struct-of-arrays layout is meant to shrink).
func BenchmarkCampaignBuild(b *testing.B) {
	f := buildFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := Build(context.Background(), f.g, f.letters, f.pop, nil, f.rates, f.camp.Model, Config{}, 123)
		if err != nil {
			b.Fatal(err)
		}
		benchCampaign = c
	}
	b.StopTimer()
	b.ReportMetric(float64(liveBytes(&benchCampaign)), "retained_bytes")
	// Keep the shared fixture reachable through the measurement: without
	// this, dropping the campaign could also free the world it references
	// and retained_bytes would count the whole fixture.
	runtime.KeepAlive(f)
}

// BenchmarkJoinCDN measures the streaming /24 join.
func BenchmarkJoinCDN(b *testing.B) {
	f := buildFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchJoin = f.camp.JoinCDNCtx(context.Background(), f.cdn, false)
	}
}

// BenchmarkEmitSiteCapture measures pcap emission with pooled buffers.
func BenchmarkEmitSiteCapture(b *testing.B) {
	f := buildFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if _, err := f.camp.EmitSiteCapture(&buf, 2, 0, 2000, 7); err != nil {
			b.Fatal(err)
		}
	}
}

// liveBytes reports how much heap clearing *p releases: heap in use with
// the value live minus heap in use after dropping it, GC'd to quiescence.
func liveBytes[T any](p *T) uint64 {
	var zero T
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	*p = zero
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if after.HeapAlloc >= before.HeapAlloc {
		return 0
	}
	return before.HeapAlloc - after.HeapAlloc
}

// joinCDNSerial is the single-pass reference implementation of
// JoinCDNCtx, the oracle the streaming version is tested byte-identical
// against. It does not touch the obs counters.
func (c *Campaign) joinCDNSerial(cdn *users.CDNCounts, byIP bool) *Join {
	j := &Join{ByIP: byIP}
	for ri := range c.Pop.Recursives {
		if row, ok := c.joinRow(cdn, byIP, ri); ok {
			j.Rows = append(j.Rows, row)
		}
	}
	return j
}
