// Package report renders experiment outputs the way the paper presents
// them: aligned ASCII tables for the tables, and per-series CDF samples
// for the figures. It also carries the published root-operator survey
// (Table 1), which is data in the paper itself.
package report

import (
	"fmt"
	"strings"

	"anycastctx/internal/stats"
)

// Table is a simple aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row; short rows are padded.
func (t *Table) AddRow(cells ...string) {
	for len(cells) < len(t.Headers) {
		cells = append(cells, "")
	}
	t.Rows = append(t.Rows, cells)
}

// AddDelta appends a before/after/delta row for one metric. format is
// the fmt verb for the values (e.g. "%.2f"); the delta column renders
// with an explicit sign.
func (t *Table) AddDelta(metric, format string, before, after float64) {
	t.AddRow(metric,
		fmt.Sprintf(format, before),
		fmt.Sprintf(format, after),
		fmt.Sprintf("%+"+strings.TrimPrefix(format, "%"), after-before))
}

// Render returns the aligned text form.
func (t *Table) Render() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if i < len(widths) {
				for p := len(c); p < widths[i]; p++ {
					sb.WriteByte(' ')
				}
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Headers)
	var total int
	for _, w := range widths {
		total += w + 2
	}
	sb.WriteString(strings.Repeat("-", total))
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return sb.String()
}

// Series is one named CDF line of a figure.
type Series struct {
	Name string
	CDF  *stats.CDF
}

// RenderCDFs samples each series at the given x positions and renders one
// row per x with one column per series — the textual equivalent of a
// multi-line CDF figure.
func RenderCDFs(title, xLabel string, xs []float64, series []Series) string {
	t := Table{Title: title, Headers: []string{xLabel}}
	for _, s := range series {
		t.Headers = append(t.Headers, s.Name)
	}
	for _, x := range xs {
		row := []string{fmt.Sprintf("%g", x)}
		for _, s := range series {
			if s.CDF == nil {
				row = append(row, "-")
				continue
			}
			row = append(row, fmt.Sprintf("%.3f", s.CDF.P(x)))
		}
		t.AddRow(row...)
	}
	return t.Render()
}

// SurveyReason is one row of Table 1's left half.
type SurveyReason struct {
	Reason string
	Orgs   int
}

// SurveyTrend is one row of Table 1's right half.
type SurveyTrend struct {
	Trend string
	Orgs  int
}

// Survey is the paper's root-operator survey (Table 1): 11 of 12 root
// operators responded.
type Survey struct {
	Respondents int
	Reasons     []SurveyReason
	Trends      []SurveyTrend
}

// RootOperatorSurvey returns the published Table 1.
func RootOperatorSurvey() Survey {
	return Survey{
		Respondents: 11,
		Reasons: []SurveyReason{
			{Reason: "Latency", Orgs: 8},
			{Reason: "DDoS Resilience", Orgs: 9},
			{Reason: "ISP Resilience", Orgs: 5},
			{Reason: "Other", Orgs: 3},
		},
		Trends: []SurveyTrend{
			{Trend: "Acceleration of Growth", Orgs: 1},
			{Trend: "Deceleration of Growth", Orgs: 4},
			{Trend: "Maintain Growth Rate", Orgs: 4},
			{Trend: "Cannot Share", Orgs: 1},
		},
	}
}

// Render formats the survey as Table 1.
func (s Survey) Render() string {
	t := Table{
		Title:   fmt.Sprintf("Table 1: root operator survey (%d respondents)", s.Respondents),
		Headers: []string{"Reason for Growth", "Orgs", "Future Growth Trend", "Orgs"},
	}
	n := len(s.Reasons)
	if len(s.Trends) > n {
		n = len(s.Trends)
	}
	for i := 0; i < n; i++ {
		var r, ro, tr, to string
		if i < len(s.Reasons) {
			r = s.Reasons[i].Reason
			ro = fmt.Sprintf("%d", s.Reasons[i].Orgs)
		}
		if i < len(s.Trends) {
			tr = s.Trends[i].Trend
			to = fmt.Sprintf("%d", s.Trends[i].Orgs)
		}
		t.AddRow(r, ro, tr, to)
	}
	return t.Render()
}
