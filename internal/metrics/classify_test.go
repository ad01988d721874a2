package metrics

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestClassConfusion(t *testing.T) {
	c := NewClassConfusion(3)
	// true 0 predicted 0 twice, true 0 -> 1 once, true 2 -> 2 once.
	c.Add(0, 0)
	c.Add(0, 0)
	c.Add(0, 1)
	c.Add(2, 2)
	if got := c.Accuracy(); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("accuracy = %v", got)
	}
	truth, pred, count, ok := c.MostConfused()
	if !ok || truth != 0 || pred != 1 || count != 1 {
		t.Fatalf("most confused = (%d,%d,%d,%v)", truth, pred, count, ok)
	}
	var buf bytes.Buffer
	c.Render(&buf, []string{"a", "b", "c"})
	if !strings.Contains(buf.String(), "a") || !strings.Contains(buf.String(), "2") {
		t.Fatalf("render:\n%s", buf.String())
	}
}

func TestClassConfusionEmpty(t *testing.T) {
	c := NewClassConfusion(2)
	if c.Accuracy() != 0 {
		t.Fatal("empty accuracy should be 0")
	}
	if _, _, _, ok := c.MostConfused(); ok {
		t.Fatal("no errors yet")
	}
}
