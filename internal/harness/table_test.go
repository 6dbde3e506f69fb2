package harness

import (
	"math"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := Table{
		Title:   "T",
		Headers: []string{"name", "v1", "v2"},
	}
	tb.AddRow("alpha", "1.00", "2.5")
	tb.AddRow("b", "10.00", "-")
	s := tb.String()
	if !strings.Contains(s, "T\n=") {
		t.Error("missing underlined title")
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 { // title, underline, header, rule, 2 rows -> 6? title+underline+header+rule+2
		if len(lines) != 6 {
			t.Fatalf("unexpected line count %d:\n%s", len(lines), s)
		}
	}
	// Columns right-aligned except the first: "1.00" and "10.00" must end
	// at the same column.
	var rows []string
	for _, l := range lines {
		if strings.HasPrefix(l, "alpha") || strings.HasPrefix(l, "b ") {
			rows = append(rows, l)
		}
	}
	if len(rows) != 2 {
		t.Fatalf("rows not found in output:\n%s", s)
	}
	if i1, i2 := strings.Index(rows[0], "1.00")+4, strings.Index(rows[1], "10.00")+5; i1 != i2 {
		t.Errorf("numeric columns not aligned:\n%s", s)
	}
}

func TestFormatters(t *testing.T) {
	if FmtRel(math.NaN()) != "-" || FmtSec(math.NaN()) != "-" {
		t.Error("NaN should render as -")
	}
	if FmtRel(1.2345) != "1.234" && FmtRel(1.2345) != "1.235" {
		t.Errorf("FmtRel = %s", FmtRel(1.2345))
	}
	if FmtMB(1<<20) != "1.00" {
		t.Errorf("FmtMB = %s", FmtMB(1<<20))
	}
	if FmtSec(733e6) != "1.000" {
		t.Errorf("FmtSec(1s) = %s", FmtSec(733e6))
	}
}

func TestRelativeToBestHandlesOOM(t *testing.T) {
	mk := func(bench string, total float64, oom bool) *Result {
		return &Result{Benchmark: bench, TotalTime: total, GCTime: total / 10, OOM: oom}
	}
	points := [][]SweepPoint{
		{ // collector A: completes everywhere
			{Results: []*Result{mk("x", 100, false), mk("y", 300, false)}},
			{Results: []*Result{mk("x", 80, false), mk("y", 200, false)}},
		},
		{ // collector B: OOMs at the first point
			{Results: []*Result{mk("x", 100, true), mk("y", 300, false)}},
			{Results: []*Result{mk("x", 160, false), mk("y", 400, false)}},
		},
	}
	rel := RelativeToBest(points, TotalTime)
	if !math.IsNaN(rel[1][0]) {
		t.Error("OOM point must be NaN")
	}
	// Best per benchmark: x=80, y=200; A's second point = geomean(1,1)=1.
	if math.Abs(rel[0][1]-1.0) > 1e-9 {
		t.Errorf("best point = %v, want 1", rel[0][1])
	}
	// A's first point: geomean(100/80, 300/200) = sqrt(1.25*1.5).
	want := math.Sqrt(1.25 * 1.5)
	if math.Abs(rel[0][0]-want) > 1e-9 {
		t.Errorf("rel[0][0] = %v, want %v", rel[0][0], want)
	}
	// B's second point: geomean(2, 2) = 2.
	if math.Abs(rel[1][1]-2.0) > 1e-9 {
		t.Errorf("rel[1][1] = %v, want 2", rel[1][1])
	}

	abs := AbsoluteGeoMean(points, TotalTime)
	if math.Abs(abs[0][0]-math.Sqrt(100*300)) > 1e-9 {
		t.Errorf("absolute geomean = %v", abs[0][0])
	}
	if !math.IsNaN(abs[1][0]) {
		t.Error("absolute geomean of an OOM point must be NaN")
	}

	series := BenchmarkSeries(points, "x", TotalTime)
	if math.Abs(series[0][0]-100.0/80) > 1e-9 || !math.IsNaN(series[1][0]) {
		t.Errorf("benchmark series wrong: %v", series)
	}
}
