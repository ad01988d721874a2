package metrics

import (
	"fmt"
	"io"
)

// ClassConfusion is a multi-class confusion matrix:
// Counts[true][predicted].
type ClassConfusion struct {
	Classes int
	Counts  [][]int
}

// NewClassConfusion returns an empty matrix over the given classes.
func NewClassConfusion(classes int) *ClassConfusion {
	c := &ClassConfusion{Classes: classes, Counts: make([][]int, classes)}
	for i := range c.Counts {
		c.Counts[i] = make([]int, classes)
	}
	return c
}

// Add records one (true, predicted) observation; out-of-range labels
// panic, which is a programmer error.
func (c *ClassConfusion) Add(truth, pred int) {
	c.Counts[truth][pred]++
}

// Accuracy returns the trace fraction.
func (c *ClassConfusion) Accuracy() float64 {
	diag, total := 0, 0
	for i, row := range c.Counts {
		for j, v := range row {
			total += v
			if i == j {
				diag += v
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(diag) / float64(total)
}

// MostConfused returns the off-diagonal cell with the highest count:
// the (true, predicted) pair the model mixes up most. ok is false when
// there are no errors.
func (c *ClassConfusion) MostConfused() (truth, pred, count int, ok bool) {
	for i, row := range c.Counts {
		for j, v := range row {
			if i != j && v > count {
				truth, pred, count, ok = i, j, v, true
			}
		}
	}
	return truth, pred, count, ok
}

// Render writes the matrix with row/column headers.
func (c *ClassConfusion) Render(w io.Writer, names []string) {
	label := func(i int) string {
		if i < len(names) {
			return names[i]
		}
		return fmt.Sprintf("%d", i)
	}
	width := 5
	for i := 0; i < c.Classes; i++ {
		if len(label(i)) > width {
			width = len(label(i))
		}
	}
	fmt.Fprintf(w, "%*s", width+2, "t\\p")
	for j := 0; j < c.Classes; j++ {
		fmt.Fprintf(w, "%*s", width+2, label(j))
	}
	fmt.Fprintln(w)
	for i, row := range c.Counts {
		fmt.Fprintf(w, "%*s", width+2, label(i))
		for _, v := range row {
			cell := fmt.Sprintf("%d", v)
			if v == 0 {
				cell = "."
			}
			fmt.Fprintf(w, "%*s", width+2, cell)
		}
		fmt.Fprintln(w)
	}
}
