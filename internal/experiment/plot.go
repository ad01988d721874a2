package experiment

import (
	"fmt"
	"io"
	"strings"

	"deepvalidation/internal/metrics"
)

// RenderHistograms draws Figure 3's two score distributions as a
// terminal plot: each row is one of `rows` intensity bands, columns
// span the normalized [0,1] score axis, '#' marks the clean density and
// 'x' the SCC density ('o' where they overlap).
func (d *Fig3Data) RenderHistograms(w io.Writer, cols, rows int) {
	if cols <= 0 {
		cols = 80
	}
	if rows <= 0 {
		rows = 12
	}
	clean := rebin(d.CleanHist, cols)
	scc := rebin(d.SCCHist, cols)
	peak := 0.0
	for i := 0; i < cols; i++ {
		if clean[i] > peak {
			peak = clean[i]
		}
		if scc[i] > peak {
			peak = scc[i]
		}
	}
	fmt.Fprintf(w, "Figure 3 — normalized joint discrepancy (%s): '#' clean, 'x' SCC, 'o' both\n", d.Scenario)
	if peak == 0 {
		fmt.Fprintln(w, "(no data)")
		return
	}
	for r := rows; r >= 1; r-- {
		level := float64(r) / float64(rows) * peak
		var b strings.Builder
		for i := 0; i < cols; i++ {
			c := clean[i] >= level
			s := scc[i] >= level
			switch {
			case c && s:
				b.WriteByte('o')
			case c:
				b.WriteByte('#')
			case s:
				b.WriteByte('x')
			default:
				b.WriteByte(' ')
			}
		}
		fmt.Fprintf(w, "|%s|\n", b.String())
	}
	fmt.Fprintf(w, "+%s+\n0%sscore%s1\n",
		strings.Repeat("-", cols),
		strings.Repeat(" ", (cols-5)/2), strings.Repeat(" ", cols-5-(cols-5)/2))
	fmt.Fprintf(w, "clean mean %.3f | SCC mean %.3f | suggested ε (midpoint) %.3f\n",
		d.MeanClean, d.MeanSCC, d.SuggestEps)
}

// rebin folds a histogram's counts into `cols` equal-width buckets
// normalized by total mass, so two populations of different sizes are
// comparable (the paper plots densities).
func rebin(h *metrics.Histogram, cols int) []float64 {
	out := make([]float64, cols)
	if h.Total == 0 {
		return out
	}
	n := len(h.Counts)
	for i, c := range h.Counts {
		// Map source bin center back to the global normalized axis.
		x := h.Min + float64((float64(i)+0.5)/float64(n)*(h.Max-h.Min))
		col := int(x * float64(cols))
		if col < 0 {
			col = 0
		} else if col >= cols {
			col = cols - 1
		}
		out[col] += float64(c) / float64(h.Total)
	}
	return out
}
