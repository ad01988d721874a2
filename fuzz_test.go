package deepvalidation

import (
	"math"
	"testing"
)

// pixelsFromBytes decodes fuzz bytes into pixel values, deliberately
// mapping some bytes onto the adversarial values Validate must reject:
// NaN, ±Inf, and out-of-band magnitudes.
func pixelsFromBytes(data []byte) []float64 {
	px := make([]float64, len(data))
	for i, b := range data {
		switch b {
		case 255:
			px[i] = math.NaN()
		case 254:
			px[i] = math.Inf(1)
		case 253:
			px[i] = math.Inf(-1)
		case 252:
			px[i] = 1e300
		default:
			px[i] = float64(b) / 251
		}
	}
	return px
}

// FuzzImageValidate hardens the public input path: for arbitrary
// (Channels, Height, Width, Pixels) combinations — mismatched sizes,
// negative or overflowing dimensions, NaN/Inf pixels — Validate and
// tensorOf must either reject the image or produce a well-formed,
// finite tensor. Neither may panic.
func FuzzImageValidate(f *testing.F) {
	f.Add(1, 8, 8, make([]byte, 64))
	f.Add(3, 2, 2, make([]byte, 12))
	f.Add(1, 2, 2, []byte{255, 0, 0, 0})   // NaN pixel
	f.Add(1, 2, 2, []byte{254, 0, 0, 253}) // ±Inf pixels
	f.Add(-1, 8, 8, make([]byte, 64))      // negative dimension
	f.Add(0, 0, 0, []byte{})               // all-zero dimensions
	f.Add(1, 8, 8, make([]byte, 10))       // count mismatch
	f.Add(math.MaxInt32, math.MaxInt32, 4, make([]byte, 16))
	f.Add(math.MaxInt, math.MaxInt, math.MaxInt, []byte{}) // overflow bait
	f.Fuzz(func(t *testing.T, c, h, w int, data []byte) {
		im := Image{Channels: c, Height: h, Width: w, Pixels: pixelsFromBytes(data)}
		err := im.Validate()
		if err == nil {
			if c <= 0 || h <= 0 || w <= 0 {
				t.Fatalf("Validate accepted non-positive dimensions (%d,%d,%d)", c, h, w)
			}
			if c*h*w != len(im.Pixels) || len(im.Pixels)/h/w != c {
				t.Fatalf("Validate accepted inconsistent geometry (%d,%d,%d) with %d pixels", c, h, w, len(im.Pixels))
			}
			for i, p := range im.Pixels {
				if math.IsNaN(p) || math.IsInf(p, 0) {
					t.Fatalf("Validate accepted non-finite pixel %d = %v", i, p)
				}
			}
		}

		x, terr := tensorOf(im)
		if (err == nil) != (terr == nil) {
			t.Fatalf("Validate err=%v but tensorOf err=%v", err, terr)
		}
		if terr != nil {
			return
		}
		if x.Len() != len(im.Pixels) {
			t.Fatalf("tensor has %d values for %d pixels", x.Len(), len(im.Pixels))
		}
		// The tensor must be a copy: mutating it must not touch the image.
		if len(im.Pixels) > 0 {
			orig := im.Pixels[0]
			x.Data[0] = orig + 42
			if im.Pixels[0] != orig {
				t.Fatal("tensorOf aliased the caller's pixel buffer")
			}
		}
	})
}
