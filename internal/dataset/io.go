package dataset

import (
	"fmt"
	"io"
	"os"

	"deepvalidation/internal/tensor"
)

// WritePNM writes an image tensor as PGM (1 channel) or PPM (3
// channels), the formats used to export Figure 2's example corner
// cases. Values are clamped to [0,1] and quantized to 8 bits.
func WritePNM(w io.Writer, img *tensor.Tensor) error {
	if img.Rank() != 3 {
		return fmt.Errorf("dataset: WritePNM wants a (C,H,W) tensor, got shape %v", img.Shape)
	}
	c, h, wd := img.Shape[0], img.Shape[1], img.Shape[2]
	var magic string
	switch c {
	case 1:
		magic = "P5"
	case 3:
		magic = "P6"
	default:
		return fmt.Errorf("dataset: WritePNM supports 1 or 3 channels, got %d", c)
	}
	if _, err := fmt.Fprintf(w, "%s\n%d %d\n255\n", magic, wd, h); err != nil {
		return fmt.Errorf("dataset: writing PNM header: %w", err)
	}
	buf := make([]byte, 0, h*wd*c)
	for y := 0; y < h; y++ {
		for x := 0; x < wd; x++ {
			for ch := 0; ch < c; ch++ {
				v := img.At(ch, y, x)
				if v < 0 {
					v = 0
				} else if v > 1 {
					v = 1
				}
				buf = append(buf, byte(float64(v*255)+0.5))
			}
		}
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("dataset: writing PNM pixels: %w", err)
	}
	return nil
}

// SavePNM writes the image to a file; the conventional extensions are
// .pgm for greyscale and .ppm for color.
func SavePNM(path string, img *tensor.Tensor) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("dataset: saving image: %w", err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("dataset: closing %s: %w", path, cerr)
		}
	}()
	return WritePNM(f, img)
}
