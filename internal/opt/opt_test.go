package opt

import (
	"fmt"
	"math"
	"testing"

	"deepvalidation/internal/tensor"
)

// quadratic is f(x) = Σ (x_i - target_i)², gradient 2(x - target).
type quadratic struct {
	target *tensor.Tensor
}

func (q quadratic) loss(x *tensor.Tensor) float64 {
	s := 0.0
	for i, v := range x.Data {
		d := v - q.target.Data[i]
		s += d * d
	}
	return s
}

func (q quadratic) grad(x *tensor.Tensor) *tensor.Tensor {
	g := tensor.New(x.Shape...)
	for i, v := range x.Data {
		g.Data[i] = 2 * (v - q.target.Data[i])
	}
	return g
}

type stepper interface {
	Step(name string, value, grad *tensor.Tensor)
}

func converges(t *testing.T, o stepper, iters int, tol float64) {
	t.Helper()
	q := quadratic{target: tensor.From([]float64{3, -1, 0.5}, 3)}
	x := tensor.From([]float64{-5, 4, 2}, 3)
	for i := 0; i < iters; i++ {
		o.Step("x", x, q.grad(x))
	}
	if got := q.loss(x); got > tol {
		t.Fatalf("loss after %d iters = %v, want < %v (x=%v)", iters, got, tol, x)
	}
}

func TestAdadeltaConverges(t *testing.T) { converges(t, NewAdadelta(1.0, 0.95), 3000, 1e-3) }

func TestOptimizersKeepPerParamState(t *testing.T) {
	// Two parameters optimized with one Adadelta must not share
	// accumulators: after identical gradients their values must match
	// exactly.
	o := NewAdadelta(1.0, 0.95)
	a := tensor.From([]float64{1}, 1)
	b := tensor.From([]float64{1}, 1)
	for i := 0; i < 10; i++ {
		g := tensor.From([]float64{0.5}, 1)
		o.Step("a", a, g)
		o.Step("b", b, g.Clone())
	}
	if math.Abs(a.Data[0]-b.Data[0]) > 1e-15 {
		t.Fatalf("independent params diverged: %v vs %v", a.Data[0], b.Data[0])
	}
}

func TestAdadeltaFirstStepSmall(t *testing.T) {
	// Adadelta's signature behaviour: the first update magnitude is
	// ~sqrt(eps/( (1-rho) g² + eps )) · g, tiny for large gradients.
	o := NewAdadelta(1.0, 0.95)
	x := tensor.From([]float64{0}, 1)
	o.Step("x", x, tensor.From([]float64{100}, 1))
	if math.Abs(x.Data[0]) > 0.1 {
		t.Fatalf("first Adadelta step too large: %v", x.Data[0])
	}
	if x.Data[0] >= 0 {
		t.Fatalf("step direction wrong: %v (gradient positive, update must be negative)", x.Data[0])
	}
}

func TestStringers(t *testing.T) {
	var s fmt.Stringer = NewAdadelta(1, 0.95)
	if s.String() == "" {
		t.Error("empty optimizer description")
	}
}
