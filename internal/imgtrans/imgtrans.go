// Package imgtrans implements the naturally occurring image
// transformations the paper uses for metamorphic corner-case synthesis
// (Section III-A1): brightness and contrast adjustment, the four affine
// transformations of Table I (rotation, shear, scale, translation),
// complement, and pairwise composition.
package imgtrans

import (
	"fmt"
	"math"

	"deepvalidation/internal/tensor"
)

// Transform converts a clean image into a (possibly) corner-case image.
// Implementations never modify their input.
type Transform interface {
	// Name identifies the transformation family, e.g. "rotation".
	Name() string
	// Describe renders the parameterization, e.g. "rotation(θ=40°)".
	Describe() string
	// Apply returns the transformed copy of img.
	Apply(img *tensor.Tensor) *tensor.Tensor
}

// Brightness shifts every pixel by a constant bias β — the paper's
// model of illumination change ("increase or reduce all the current
// pixel values by a constant bias β").
type Brightness struct {
	Beta float64
}

// Name implements Transform.
func (t Brightness) Name() string { return "brightness" }

// Describe implements Transform.
func (t Brightness) Describe() string { return fmt.Sprintf("brightness(β=%.2f)", t.Beta) }

// Apply implements Transform.
func (t Brightness) Apply(img *tensor.Tensor) *tensor.Tensor {
	return img.Clone().ShiftInPlace(t.Beta).ClampInPlace(0, 1)
}

// Contrast multiplies every pixel by a constant gain α ("multiplying
// all the current pixel values by a constant gain α").
type Contrast struct {
	Alpha float64
}

// Name implements Transform.
func (t Contrast) Name() string { return "contrast" }

// Describe implements Transform.
func (t Contrast) Describe() string { return fmt.Sprintf("contrast(α=%.2f)", t.Alpha) }

// Apply implements Transform.
func (t Contrast) Apply(img *tensor.Tensor) *tensor.Tensor {
	return img.Clone().ScaleInPlace(t.Alpha).ClampInPlace(0, 1)
}

// Complement flips all pixel values (x → max − x with max = 1.0, per
// Table IV). The paper applies it to greyscale images only.
type Complement struct{}

// Name implements Transform.
func (t Complement) Name() string { return "complement" }

// Describe implements Transform.
func (t Complement) Describe() string { return "complement(max=1.0)" }

// Apply implements Transform.
func (t Complement) Apply(img *tensor.Tensor) *tensor.Tensor {
	return img.Map(func(v float64) float64 { return 1 - v })
}

// Affine applies one of Table I's affine transformations about the
// image center by inverse-mapping with bilinear sampling;
// out-of-support pixels read as 0.
type Affine struct {
	Kind string
	Desc string
	// Inv maps output pixel coordinates (relative to the image center)
	// to input coordinates. Working with the inverse directly avoids a
	// numerical inversion per pixel.
	Inv Matrix
}

// Name implements Transform.
func (t Affine) Name() string { return t.Kind }

// Describe implements Transform.
func (t Affine) Describe() string { return t.Desc }

// Apply implements Transform.
func (t Affine) Apply(img *tensor.Tensor) *tensor.Tensor {
	if img.Rank() != 3 {
		panic(fmt.Sprintf("imgtrans: affine transform wants (C,H,W), got %v", img.Shape))
	}
	c, h, w := img.Shape[0], img.Shape[1], img.Shape[2]
	out := tensor.New(c, h, w)
	cx, cy := float64(float64(w-1)/2), float64(float64(h-1)/2)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			sx, sy := t.Inv.apply(float64(x)-cx, float64(y)-cy)
			sx += cx
			sy += cy
			for ch := 0; ch < c; ch++ {
				out.Set(bilinear(img, ch, sx, sy), ch, y, x)
			}
		}
	}
	return out
}

// bilinear samples channel ch of img at fractional coordinates (x, y),
// returning 0 outside the image.
func bilinear(img *tensor.Tensor, ch int, x, y float64) float64 {
	h, w := img.Shape[1], img.Shape[2]
	x0, y0 := math.Floor(x), math.Floor(y)
	fx, fy := x-x0, y-y0
	ix, iy := int(x0), int(y0)
	get := func(xx, yy int) float64 {
		if xx < 0 || xx >= w || yy < 0 || yy >= h {
			return 0
		}
		return img.At(ch, yy, xx)
	}
	return float64((1-fy)*(float64((1-fx)*get(ix, iy))+float64(fx*get(ix+1, iy)))) +
		float64(fy*(float64((1-fx)*get(ix, iy+1))+float64(fx*get(ix+1, iy+1))))
}

// Matrix is a 2×3 affine matrix in homogeneous form (the last row is
// implicitly [0 0 1], as in Table I).
type Matrix struct {
	A, B, C float64 // x' = A·x + B·y + C
	D, E, F float64 // y' = D·x + E·y + F
}

func (m Matrix) apply(x, y float64) (float64, float64) {
	return float64(m.A*x) + float64(m.B*y) + m.C, float64(m.D*x) + float64(m.E*y) + m.F
}

// Invert returns the inverse affine matrix; it panics if the linear
// part is singular (a programmer error for the transforms in Table IV's
// ranges).
func (m Matrix) Invert() Matrix {
	det := float64(m.A*m.E) - float64(m.B*m.D)
	if math.Abs(det) < 1e-12 {
		panic("imgtrans: singular affine matrix")
	}
	ia, ib := m.E/det, -m.B/det
	id, ie := -m.D/det, m.A/det
	return Matrix{
		A: ia, B: ib, C: -(float64(ia*m.C) + float64(ib*m.F)),
		D: id, E: ie, F: -(float64(id*m.C) + float64(ie*m.F)),
	}
}

// Rotation rotates the image content by θ degrees about the center
// (Table I row 1).
func Rotation(thetaDeg float64) Affine {
	th := thetaDeg * math.Pi / 180
	fwd := Matrix{A: math.Cos(th), B: -math.Sin(th), D: math.Sin(th), E: math.Cos(th)}
	return Affine{
		Kind: "rotation",
		Desc: fmt.Sprintf("rotation(θ=%.0f°)", thetaDeg),
		Inv:  fwd.Invert(),
	}
}

// Shear applies the shear ratios (s_h, s_v) of Table I row 2.
func Shear(sh, sv float64) Affine {
	fwd := Matrix{A: 1, B: sh, D: sv, E: 1}
	return Affine{
		Kind: "shear",
		Desc: fmt.Sprintf("shear(s_h=%.2f, s_v=%.2f)", sh, sv),
		Inv:  fwd.Invert(),
	}
}

// Scale scales the image content by (s_x, s_y) about the center
// (Table I row 3); ratios below 1 shrink the object, above 1 zoom in.
func Scale(sx, sy float64) Affine {
	fwd := Matrix{A: sx, E: sy}
	return Affine{
		Kind: "scale",
		Desc: fmt.Sprintf("scale(s_x=%.2f, s_y=%.2f)", sx, sy),
		Inv:  fwd.Invert(),
	}
}

// Translation shifts the image content by (T_x, T_y) pixels
// (Table I row 4).
func Translation(tx, ty float64) Affine {
	fwd := Matrix{A: 1, E: 1, C: tx, F: ty}
	return Affine{
		Kind: "translation",
		Desc: fmt.Sprintf("translation(T_x=%.0f, T_y=%.0f)", tx, ty),
		Inv:  fwd.Invert(),
	}
}

// Chain applies a sequence of transformations left to right. A
// two-stage chain is the paper's "combination of two transformations"
// (Section III-A2); the corner-case miner's composition search builds
// its candidates from longer ones. An empty chain is the identity.
type Chain []Transform

// Name implements Transform: the "+"-joined family names, the key the
// escape-rate tables group compositions by.
func (c Chain) Name() string {
	if len(c) == 0 {
		return "identity"
	}
	s := c[0].Name()
	for _, t := range c[1:] {
		s += "+" + t.Name()
	}
	return s
}

// Describe implements Transform, rendering each stage in application
// order.
func (c Chain) Describe() string {
	if len(c) == 0 {
		return "identity"
	}
	s := c[0].Describe()
	for _, t := range c[1:] {
		s += " ∘ " + t.Describe()
	}
	return s
}

// Apply implements Transform; stages run in slice order.
func (c Chain) Apply(img *tensor.Tensor) *tensor.Tensor {
	if len(c) == 0 {
		return img.Clone()
	}
	out := c[0].Apply(img)
	for _, t := range c[1:] {
		out = t.Apply(out)
	}
	return out
}

// Identity returns the input unchanged; it anchors parameter sweeps.
type Identity struct{}

// Name implements Transform.
func (t Identity) Name() string { return "identity" }

// Describe implements Transform.
func (t Identity) Describe() string { return "identity" }

// Apply implements Transform.
func (t Identity) Apply(img *tensor.Tensor) *tensor.Tensor { return img.Clone() }

// Interface compliance checks.
var (
	_ Transform = Brightness{}
	_ Transform = Contrast{}
	_ Transform = Complement{}
	_ Transform = Affine{}
	_ Transform = Chain{}
	_ Transform = Identity{}
)
