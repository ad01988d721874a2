package imgtrans

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"deepvalidation/internal/tensor"
)

func randImage(seed int64, c, h, w int) *tensor.Tensor {
	return tensor.New(c, h, w).FillUniform(rand.New(rand.NewSource(seed)), 0, 1)
}

func TestBrightnessShiftsAndClamps(t *testing.T) {
	img := tensor.From([]float64{0.1, 0.5, 0.9, 0.99}, 1, 2, 2)
	out := Brightness{Beta: 0.2}.Apply(img)
	want := []float64{0.3, 0.7, 1.0, 1.0}
	for i, w := range want {
		if math.Abs(out.Data[i]-w) > 1e-12 {
			t.Fatalf("brightness[%d] = %v, want %v", i, out.Data[i], w)
		}
	}
	if img.Data[0] != 0.1 {
		t.Fatal("input mutated")
	}
}

func TestBrightnessNegativeBias(t *testing.T) {
	img := tensor.From([]float64{0.1, 0.5}, 1, 1, 2)
	out := Brightness{Beta: -0.3}.Apply(img)
	if out.Data[0] != 0 || math.Abs(out.Data[1]-0.2) > 1e-12 {
		t.Fatalf("negative brightness = %v", out.Data)
	}
}

func TestContrastScalesAndClamps(t *testing.T) {
	img := tensor.From([]float64{0.1, 0.3, 0.6}, 1, 1, 3)
	out := Contrast{Alpha: 2}.Apply(img)
	want := []float64{0.2, 0.6, 1.0}
	for i, w := range want {
		if math.Abs(out.Data[i]-w) > 1e-12 {
			t.Fatalf("contrast[%d] = %v, want %v", i, out.Data[i], w)
		}
	}
}

func TestComplementIsInvolution(t *testing.T) {
	img := randImage(1, 1, 8, 8)
	twice := Complement{}.Apply(Complement{}.Apply(img))
	if !twice.AllClose(img, 1e-12) {
		t.Fatal("complement twice must be the identity")
	}
}

func TestComplementFlipsExtremes(t *testing.T) {
	img := tensor.From([]float64{0, 1, 0.25}, 1, 1, 3)
	out := Complement{}.Apply(img)
	want := []float64{1, 0, 0.75}
	for i, w := range want {
		if math.Abs(out.Data[i]-w) > 1e-12 {
			t.Fatalf("complement[%d] = %v, want %v", i, out.Data[i], w)
		}
	}
}

func TestRotationZeroIsIdentity(t *testing.T) {
	img := randImage(2, 1, 9, 9)
	out := Rotation(0).Apply(img)
	if !out.AllClose(img, 1e-9) {
		t.Fatal("0° rotation must be the identity")
	}
}

func TestRotation360IsIdentity(t *testing.T) {
	img := randImage(3, 1, 9, 9)
	out := Rotation(360).Apply(img)
	if !out.AllClose(img, 1e-9) {
		t.Fatal("360° rotation must be the identity")
	}
}

func TestRotation90MovesPixelCorrectly(t *testing.T) {
	// A 5×5 image with one bright pixel right of center must move it
	// below center under a +90° rotation (x→y with y-down screen
	// coordinates).
	img := tensor.New(1, 5, 5)
	img.Set(1, 0, 2, 3) // (y=2, x=3): one step right of center
	out := Rotation(90).Apply(img)
	if got := out.At(0, 3, 2); math.Abs(got-1) > 1e-9 {
		t.Fatalf("pixel after 90° rotation at (3,2) = %v, want 1; image:\n%v", got, out.Data)
	}
}

func TestRotationPreservesCenterPixel(t *testing.T) {
	img := tensor.New(1, 7, 7)
	img.Set(1, 0, 3, 3)
	out := Rotation(45).Apply(img)
	if got := out.At(0, 3, 3); math.Abs(got-1) > 1e-6 {
		t.Fatalf("center pixel after rotation = %v, want 1", got)
	}
}

func TestScaleHalfShrinksContent(t *testing.T) {
	// A full-width bright row, scaled by 0.5, must become a half-width
	// row (object shrinks toward the center).
	img := tensor.New(1, 9, 9)
	for x := 0; x < 9; x++ {
		img.Set(1, 0, 4, x)
	}
	out := Scale(0.5, 0.5).Apply(img)
	if got := out.At(0, 4, 4); math.Abs(got-1) > 1e-9 {
		t.Fatalf("center after scale = %v, want 1", got)
	}
	if got := out.At(0, 4, 0); got > 0.01 {
		t.Fatalf("edge after 0.5 scale = %v, want ~0 (content shrunk)", got)
	}
}

func TestScaleTwoZoomsIn(t *testing.T) {
	// Zooming in by 2 pushes off-center content outward: a pixel one
	// step right of center lands two steps right.
	img := tensor.New(1, 9, 9)
	img.Set(1, 0, 4, 5)
	out := Scale(2, 2).Apply(img)
	if got := out.At(0, 4, 6); math.Abs(got-1) > 1e-9 {
		t.Fatalf("zoomed pixel at (4,6) = %v, want 1", got)
	}
}

func TestTranslationMovesContent(t *testing.T) {
	img := tensor.New(1, 7, 7)
	img.Set(1, 0, 3, 3)
	out := Translation(2, 1).Apply(img)
	if got := out.At(0, 4, 5); math.Abs(got-1) > 1e-9 {
		t.Fatalf("translated pixel at (4,5) = %v, want 1", got)
	}
	if got := out.At(0, 3, 3); got > 1e-9 {
		t.Fatalf("original position still bright: %v", got)
	}
}

func TestShearZeroIsIdentity(t *testing.T) {
	img := randImage(4, 1, 8, 8)
	out := Shear(0, 0).Apply(img)
	if !out.AllClose(img, 1e-9) {
		t.Fatal("zero shear must be the identity")
	}
}

func TestShearHorizontalDisplacesByRow(t *testing.T) {
	// With x' = x + s_h·y (about the center), a pixel below center
	// shifts right when s_h > 0.
	img := tensor.New(1, 9, 9)
	img.Set(1, 0, 6, 4) // two rows below center
	out := Shear(0.5, 0).Apply(img)
	if got := out.At(0, 6, 5); math.Abs(got-1) > 1e-9 {
		t.Fatalf("sheared pixel at (6,5) = %v, want 1", got)
	}
}

func TestAffinePreservesMassApproximately(t *testing.T) {
	// Rotation is area-preserving, so total intensity away from the
	// borders should be roughly conserved.
	img := tensor.New(1, 21, 21)
	for y := 8; y <= 12; y++ {
		for x := 8; x <= 12; x++ {
			img.Set(1, 0, y, x)
		}
	}
	out := Rotation(30).Apply(img)
	if math.Abs(out.Sum()-img.Sum()) > 1.0 {
		t.Fatalf("mass changed too much: %v -> %v", img.Sum(), out.Sum())
	}
}

func TestMatrixInvertRoundTrip(t *testing.T) {
	f := func(a, b, c, d, e, g float64) bool {
		m := Matrix{
			A: 1 + math.Mod(math.Abs(a), 0.5), B: math.Mod(b, 0.5), C: math.Mod(c, 5),
			D: math.Mod(d, 0.5), E: 1 + math.Mod(math.Abs(e), 0.5), F: math.Mod(g, 5),
		}
		if math.IsNaN(m.A + m.B + m.C + m.D + m.E + m.F) {
			return true
		}
		// Three non-collinear points pin an affine map, so returning
		// them (and a far one) unchanged makes inv ∘ m the identity.
		inv := m.Invert()
		for _, p := range [][2]float64{{0, 0}, {1, 0}, {0, 1}, {7, -3}} {
			x, y := inv.apply(m.apply(p[0], p[1]))
			if math.Abs(x-p[0]) > 1e-9 || math.Abs(y-p[1]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSingularMatrixPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on singular matrix")
		}
	}()
	Matrix{A: 1, B: 2, D: 2, E: 4}.Invert()
}

func TestComposeAppliesInOrder(t *testing.T) {
	img := tensor.From([]float64{0.5}, 1, 1, 1)
	// contrast then brightness: 0.5*2=1.0 clamp, +(-0.4) = 0.6
	c := Chain{Contrast{Alpha: 2}, Brightness{Beta: -0.4}}
	out := c.Apply(img)
	if math.Abs(out.Data[0]-0.6) > 1e-12 {
		t.Fatalf("compose = %v, want 0.6", out.Data[0])
	}
	if c.Name() != "contrast+brightness" {
		t.Fatalf("compose name = %q", c.Name())
	}
	if want := c[0].Describe() + " ∘ " + c[1].Describe(); c.Describe() != want {
		t.Fatalf("compose description = %q, want %q", c.Describe(), want)
	}
}

func TestDescribeNonEmpty(t *testing.T) {
	for _, tr := range []Transform{
		Brightness{Beta: 0.5}, Contrast{Alpha: 2}, Complement{},
		Rotation(40), Shear(0.2, 0.3), Scale(0.8, 0.8), Translation(4, 3),
		Chain{Complement{}, Scale(0.8, 0.8)}, Identity{},
	} {
		if tr.Name() == "" || tr.Describe() == "" {
			t.Errorf("%T has empty name or description", tr)
		}
	}
}

func TestIdentityTransform(t *testing.T) {
	img := randImage(5, 3, 4, 4)
	out := Identity{}.Apply(img)
	if !out.AllClose(img, 0) {
		t.Fatal("identity changed the image")
	}
	out.Data[0] = 99
	if img.Data[0] == 99 {
		t.Fatal("identity returned an aliasing copy")
	}
}

func TestAffineOnColorImages(t *testing.T) {
	img := randImage(6, 3, 8, 8)
	out := Rotation(15).Apply(img)
	if !out.SameShape(img) {
		t.Fatalf("shape changed: %v", out.Shape)
	}
	// Channels must be transformed independently but identically: a
	// uniform image stays uniform per channel in the interior.
	uni := tensor.New(3, 9, 9)
	for ch := 0; ch < 3; ch++ {
		for i := 0; i < 81; i++ {
			uni.Data[ch*81+i] = float64(ch+1) * 0.25
		}
	}
	ro := Rotation(10).Apply(uni)
	for ch := 0; ch < 3; ch++ {
		if got := ro.At(ch, 4, 4); math.Abs(got-float64(ch+1)*0.25) > 1e-9 {
			t.Fatalf("channel %d center = %v", ch, got)
		}
	}
}
