// Package viz renders experiment series as plain-text charts so the
// benchmark harness can show curve shapes — the part of the paper's
// figures that actually matters for the reproduction — directly in a
// terminal, with no plotting dependencies.
package viz

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Series is one named curve.
type Series struct {
	Name   string
	Values []float64
}

// ChartConfig sizes the rendering.
type ChartConfig struct {
	// Width is the plot width in columns (default: series length,
	// capped at 60).
	Width int
	// Height is the plot height in rows (default 12).
	Height int
	// YMin/YMax fix the value range; when both zero the range is taken
	// from the data with a small margin.
	YMin, YMax float64
}

// markers distinguish up to six series in one chart.
var markers = []byte{'*', 'o', '+', 'x', '#', '@'}

// Chart renders the series as an ASCII line chart with a legend and a
// labeled y-axis. Series may have different lengths; the x-axis spans
// the longest.
func Chart(w io.Writer, title string, series []Series, cfg ChartConfig) error {
	if len(series) == 0 {
		return fmt.Errorf("viz: no series")
	}
	maxLen := 0
	for _, s := range series {
		if len(s.Values) > maxLen {
			maxLen = len(s.Values)
		}
	}
	if maxLen == 0 {
		return fmt.Errorf("viz: empty series")
	}
	width := cfg.Width
	if width <= 0 {
		width = maxLen
		if width > 60 {
			width = 60
		}
	}
	height := cfg.Height
	if height <= 0 {
		height = 12
	}
	yMin, yMax := cfg.YMin, cfg.YMax
	if yMin == 0 && yMax == 0 {
		yMin, yMax = math.Inf(1), math.Inf(-1)
		for _, s := range series {
			for _, v := range s.Values {
				if v < yMin {
					yMin = v
				}
				if v > yMax {
					yMax = v
				}
			}
		}
		margin := (yMax - yMin) * 0.05
		if margin == 0 {
			margin = 0.01
		}
		yMin -= margin
		yMax += margin
	}
	if yMax <= yMin {
		yMax = yMin + 1
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range series {
		mark := markers[si%len(markers)]
		for col := 0; col < width; col++ {
			// Map the column back to an index in this series.
			idx := col
			if width != maxLen {
				idx = col * (maxLen - 1) / max(width-1, 1)
			}
			if idx >= len(s.Values) {
				continue
			}
			v := s.Values[idx]
			frac := (v - yMin) / (yMax - yMin)
			row := height - 1 - int(frac*float64(height-1)+0.5)
			if row < 0 {
				row = 0
			}
			if row >= height {
				row = height - 1
			}
			grid[row][col] = mark
		}
	}

	var b strings.Builder
	b.WriteString(title)
	b.WriteByte('\n')
	for r, rowBytes := range grid {
		label := "        "
		switch r {
		case 0:
			label = fmt.Sprintf("%7.3f ", yMax)
		case height - 1:
			label = fmt.Sprintf("%7.3f ", yMin)
		case (height - 1) / 2:
			label = fmt.Sprintf("%7.3f ", (yMax+yMin)/2)
		}
		b.WriteString(label)
		b.WriteString("|")
		b.Write(rowBytes)
		b.WriteByte('\n')
	}
	b.WriteString("        +")
	b.WriteString(strings.Repeat("-", width))
	b.WriteString(fmt.Sprintf("\n         iterations 1..%d\n", maxLen))
	for si, s := range series {
		b.WriteString(fmt.Sprintf("         %c %s\n", markers[si%len(markers)], s.Name))
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
