// Package tensor provides the dense numeric arrays underpinning the
// neural-network substrate, the one-class SVMs, and the image pipeline.
//
// Tensors are row-major, float64, and deliberately simple: a shape and a
// flat backing slice. Shape mismatches are programmer errors and panic
// with a descriptive message, mirroring the convention of mainstream Go
// numeric libraries; operations that touch I/O return errors instead.
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Tensor is a dense row-major n-dimensional array of float64.
//
// The zero value is an empty tensor; use New or From to construct usable
// instances. Fields are exported so encoding/gob can serialize models and
// fitted detectors without custom codecs.
type Tensor struct {
	Shape []int
	Data  []float64
}

// New returns a zero-filled tensor with the given shape.
// A tensor with no dimensions holds a single scalar element.
func New(shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		if s < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", s, shape))
		}
		n *= s
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float64, n)}
}

// From wraps data in a tensor with the given shape. The slice is used
// directly (not copied); len(data) must equal the shape's element count.
func From(data []float64, shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		n *= s
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (%d elements)", len(data), shape, n))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.Shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.Shape[i] }

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.Shape) != len(o.Shape) {
		return false
	}
	for i, s := range t.Shape {
		if s != o.Shape[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{Shape: append([]int(nil), t.Shape...), Data: make([]float64, len(t.Data))}
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view of t with a new shape sharing the same backing
// data. The element counts must match. One dimension may be -1, in which
// case it is inferred.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	shape = append([]int(nil), shape...)
	infer := -1
	n := 1
	for i, s := range shape {
		if s == -1 {
			if infer >= 0 {
				panic("tensor: at most one dimension may be -1 in Reshape")
			}
			infer = i
			continue
		}
		n *= s
	}
	if infer >= 0 {
		if n == 0 || len(t.Data)%n != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dimension reshaping %v to %v", t.Shape, shape))
		}
		shape[infer] = len(t.Data) / n
		n *= shape[infer]
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elements) to %v (%d elements)", t.Shape, len(t.Data), shape, n))
	}
	return &Tensor{Shape: shape, Data: t.Data}
}

// index converts multi-indices to a flat offset.
func (t *Tensor) index(idx ...int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: %d indices for rank-%d tensor", len(idx), len(t.Shape)))
	}
	off := 0
	for i, ix := range idx {
		if ix < 0 || ix >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + ix
	}
	return off
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 { return t.Data[t.index(idx...)] }

// Set assigns the element at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) { t.Data[t.index(idx...)] = v }

// Fill sets every element to v and returns t.
func (t *Tensor) Fill(v float64) *Tensor {
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
}

// Apply replaces each element x with fn(x) and returns t.
func (t *Tensor) Apply(fn func(float64) float64) *Tensor {
	for i, v := range t.Data {
		t.Data[i] = fn(v)
	}
	return t
}

// Map returns a new tensor whose elements are fn applied to t's.
func (t *Tensor) Map(fn func(float64) float64) *Tensor {
	c := t.Clone()
	return c.Apply(fn)
}

// AddInPlace adds o to t elementwise and returns t.
func (t *Tensor) AddInPlace(o *Tensor) *Tensor {
	t.requireSameShape(o, "AddInPlace")
	for i, v := range o.Data {
		t.Data[i] += v
	}
	return t
}

// SubInPlace subtracts o from t elementwise and returns t.
func (t *Tensor) SubInPlace(o *Tensor) *Tensor {
	t.requireSameShape(o, "SubInPlace")
	for i, v := range o.Data {
		t.Data[i] -= v
	}
	return t
}

// ScaleInPlace multiplies every element by s and returns t.
func (t *Tensor) ScaleInPlace(s float64) *Tensor {
	for i := range t.Data {
		t.Data[i] *= s
	}
	return t
}

// ShiftInPlace adds s to every element and returns t.
func (t *Tensor) ShiftInPlace(s float64) *Tensor {
	for i := range t.Data {
		t.Data[i] += s
	}
	return t
}

// Add returns t + o as a new tensor.
func (t *Tensor) Add(o *Tensor) *Tensor { return t.Clone().AddInPlace(o) }

// Sub returns t - o as a new tensor.
func (t *Tensor) Sub(o *Tensor) *Tensor { return t.Clone().SubInPlace(o) }

// Scale returns s*t as a new tensor.
func (t *Tensor) Scale(s float64) *Tensor { return t.Clone().ScaleInPlace(s) }

// AxpyInPlace performs t += alpha*o and returns t.
func (t *Tensor) AxpyInPlace(alpha float64, o *Tensor) *Tensor {
	t.requireSameShape(o, "AxpyInPlace")
	for i, v := range o.Data {
		t.Data[i] += alpha * v
	}
	return t
}

// ClampInPlace limits every element to [lo, hi] and returns t.
func (t *Tensor) ClampInPlace(lo, hi float64) *Tensor {
	for i, v := range t.Data {
		if v < lo {
			t.Data[i] = lo
		} else if v > hi {
			t.Data[i] = hi
		}
	}
	return t
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements (0 for empty tensors).
func (t *Tensor) Mean() float64 {
	if len(t.Data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.Data))
}

// Max returns the maximum element; it panics on an empty tensor.
func (t *Tensor) Max() float64 {
	if len(t.Data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	m := t.Data[0]
	for _, v := range t.Data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum element; it panics on an empty tensor.
func (t *Tensor) Min() float64 {
	if len(t.Data) == 0 {
		panic("tensor: Min of empty tensor")
	}
	m := t.Data[0]
	for _, v := range t.Data[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// ArgMax returns the flat index of the maximum element; it panics on an
// empty tensor. Ties resolve to the lowest index.
func (t *Tensor) ArgMax() int {
	if len(t.Data) == 0 {
		panic("tensor: ArgMax of empty tensor")
	}
	best := 0
	for i, v := range t.Data {
		if v > t.Data[best] {
			best = i
		}
	}
	return best
}

// Dot returns the inner product of t and o viewed as flat vectors.
func (t *Tensor) Dot(o *Tensor) float64 {
	if len(t.Data) != len(o.Data) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d vs %d", len(t.Data), len(o.Data)))
	}
	s := 0.0
	for i, v := range t.Data {
		s += v * o.Data[i]
	}
	return s
}

// L1Norm returns the sum of absolute values.
func (t *Tensor) L1Norm() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += math.Abs(v)
	}
	return s
}

// L2Norm returns the Euclidean norm of the flattened tensor.
func (t *Tensor) L2Norm() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += float64(v * v)
	}
	return math.Sqrt(s)
}

// LInfNorm returns the maximum absolute value (0 for empty tensors).
func (t *Tensor) LInfNorm() float64 {
	m := 0.0
	for _, v := range t.Data {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// L0Norm returns the count of non-zero elements.
func (t *Tensor) L0Norm() int {
	n := 0
	for _, v := range t.Data {
		if v != 0 {
			n++
		}
	}
	return n
}

// AllClose reports whether every element of t is within tol of o's.
func (t *Tensor) AllClose(o *Tensor, tol float64) bool {
	if !t.SameShape(o) {
		return false
	}
	for i, v := range t.Data {
		if math.Abs(v-o.Data[i]) > tol {
			return false
		}
	}
	return true
}

// HasNaN reports whether any element is NaN or infinite.
func (t *Tensor) HasNaN() bool {
	for _, v := range t.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

// String renders a compact description, truncating large tensors.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v[", t.Shape)
	for i, v := range t.Data {
		if i > 0 {
			b.WriteString(" ")
		}
		if i == 8 && len(t.Data) > 10 {
			fmt.Fprintf(&b, "... (%d elements)", len(t.Data))
			break
		}
		fmt.Fprintf(&b, "%.4g", v)
	}
	b.WriteString("]")
	return b.String()
}

func (t *Tensor) requireSameShape(o *Tensor, op string) {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, t.Shape, o.Shape))
	}
}
