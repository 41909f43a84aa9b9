package viz

import (
	"strings"
	"testing"
)

func TestChartBasics(t *testing.T) {
	var sb strings.Builder
	err := Chart(&sb, "test chart", []Series{
		{Name: "down", Values: []float64{1, 0.8, 0.6, 0.4, 0.2}},
		{Name: "up", Values: []float64{0.2, 0.4, 0.6, 0.8, 1}},
	}, ChartConfig{Width: 20, Height: 8})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"test chart", "down", "up", "iterations 1..5", "*", "o"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart missing %q:\n%s", want, out)
		}
	}
	// Plot rows have the expected width (label + axis + grid).
	lines := strings.Split(out, "\n")
	gridLines := 0
	for _, l := range lines {
		if strings.Contains(l, "|") {
			gridLines++
			if got := len(l) - strings.Index(l, "|") - 1; got != 20 {
				t.Errorf("grid row width %d, want 20: %q", got, l)
			}
		}
	}
	if gridLines != 8 {
		t.Errorf("grid has %d rows, want 8", gridLines)
	}
}

func TestChartMonotoneShape(t *testing.T) {
	// A strictly decreasing series must have its marker higher (lower
	// row index) in the first column than in the last.
	values := []float64{1, 0.75, 0.5, 0.25, 0}
	var sb strings.Builder
	if err := Chart(&sb, "t", []Series{{Name: "s", Values: values}}, ChartConfig{Width: 5, Height: 10}); err != nil {
		t.Fatal(err)
	}
	var firstRow, lastRow = -1, -1
	rows := strings.Split(sb.String(), "\n")
	gridRow := 0
	for _, l := range rows {
		bar := strings.Index(l, "|")
		if bar < 0 {
			continue
		}
		grid := l[bar+1:]
		if len(grid) == 5 {
			if grid[0] == '*' && firstRow < 0 {
				firstRow = gridRow
			}
			if grid[4] == '*' && lastRow < 0 {
				lastRow = gridRow
			}
			gridRow++
		}
	}
	if firstRow < 0 || lastRow < 0 {
		t.Fatalf("markers not found:\n%s", sb.String())
	}
	if firstRow >= lastRow {
		t.Fatalf("decreasing series rendered wrong: first col at row %d, last at %d", firstRow, lastRow)
	}
}

func TestChartErrors(t *testing.T) {
	var sb strings.Builder
	if err := Chart(&sb, "t", nil, ChartConfig{}); err == nil {
		t.Error("no series should error")
	}
	if err := Chart(&sb, "t", []Series{{Name: "e"}}, ChartConfig{}); err == nil {
		t.Error("empty series should error")
	}
}

func TestChartFlatSeries(t *testing.T) {
	var sb strings.Builder
	if err := Chart(&sb, "flat", []Series{{Name: "c", Values: []float64{0.5, 0.5, 0.5}}}, ChartConfig{}); err != nil {
		t.Fatalf("flat series should render: %v", err)
	}
}

func TestChartDownsamplesLongSeries(t *testing.T) {
	values := make([]float64, 500)
	for i := range values {
		values[i] = float64(i)
	}
	var sb strings.Builder
	if err := Chart(&sb, "long", []Series{{Name: "l", Values: values}}, ChartConfig{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "iterations 1..500") {
		t.Error("x-axis label wrong for long series")
	}
}
