package report

import (
	"strings"
	"testing"

	"anycastctx/internal/stats"
)

func TestTableRender(t *testing.T) {
	tb := Table{Title: "demo", Headers: []string{"a", "bb"}}
	tb.AddRow("x", "y")
	tb.AddRow("longer") // short row is padded
	out := tb.Render()
	if !strings.HasPrefix(out, "demo\n") {
		t.Errorf("missing title:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "a") || !strings.Contains(lines[1], "bb") {
		t.Errorf("header line wrong: %q", lines[1])
	}
	if !strings.Contains(lines[3], "x") {
		t.Errorf("row line wrong: %q", lines[3])
	}
	// No title renders without leading line.
	tb2 := Table{Headers: []string{"h"}}
	tb2.AddRow("v")
	if strings.HasPrefix(tb2.Render(), "\n") {
		t.Error("empty title produced leading newline")
	}
}

func TestRenderCDFs(t *testing.T) {
	cdf, err := stats.NewCDFFromValues([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	out := RenderCDFs("fig", "ms", []float64{0, 2, 10}, []Series{
		{Name: "line1", CDF: cdf},
		{Name: "nil", CDF: nil},
	})
	if !strings.Contains(out, "fig") || !strings.Contains(out, "line1") {
		t.Errorf("missing labels:\n%s", out)
	}
	if !strings.Contains(out, "0.500") {
		t.Errorf("missing CDF value at x=2:\n%s", out)
	}
	if !strings.Contains(out, "1.000") {
		t.Errorf("missing CDF value at x=10:\n%s", out)
	}
	if !strings.Contains(out, "-") {
		t.Error("nil series should render '-'")
	}
}

func TestRootOperatorSurvey(t *testing.T) {
	s := RootOperatorSurvey()
	if s.Respondents != 11 {
		t.Errorf("respondents = %d", s.Respondents)
	}
	byReason := map[string]int{}
	for _, r := range s.Reasons {
		byReason[r.Reason] = r.Orgs
	}
	if byReason["Latency"] != 8 || byReason["DDoS Resilience"] != 9 || byReason["ISP Resilience"] != 5 {
		t.Errorf("reasons wrong: %v", byReason)
	}
	var trendSum int
	for _, tr := range s.Trends {
		trendSum += tr.Orgs
	}
	if trendSum != 10 { // 11 responded, one org's trend row is "Cannot Share"
		t.Errorf("trend orgs sum = %d", trendSum)
	}
	out := s.Render()
	for _, want := range []string{"Table 1", "Latency", "DDoS Resilience", "Deceleration of Growth"} {
		if !strings.Contains(out, want) {
			t.Errorf("survey render missing %q:\n%s", want, out)
		}
	}
}
