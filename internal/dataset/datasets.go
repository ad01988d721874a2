package dataset

import (
	"fmt"
	"math/rand"

	"deepvalidation/internal/tensor"
)

// Dataset is a labelled image corpus with the standard training/test
// partition the paper uses (Section IV-A).
type Dataset struct {
	Name       string
	InC        int
	Size       int
	Classes    int
	ClassNames []string
	TrainX     []*tensor.Tensor
	TrainY     []int
	TestX      []*tensor.Tensor
	TestY      []int
}

// Config sizes a generated dataset. Seed fully determines the content.
type Config struct {
	TrainN int
	TestN  int
	Seed   int64
}

// DefaultConfig returns the CPU-scale dataset size used across the
// experiments.
func DefaultConfig() Config { return Config{TrainN: 3000, TestN: 1000, Seed: 1} }

const (
	splitTrain = 0
	splitTest  = 1
)

// sampleRNG derives an independent random stream for one sample, making
// every image a pure function of (seed, split, index).
func sampleRNG(seed int64, split, index int) *rand.Rand {
	h := uint64(seed)*0x9E3779B97F4A7C15 + uint64(split)*0xBF58476D1CE4E5B9 + uint64(index)*0x94D049BB133111EB
	// splitmix64 finalizer for good bit diffusion.
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return rand.New(rand.NewSource(int64(h)))
}

type sampleGen func(rng *rand.Rand) (*tensor.Tensor, int)

func generate(name string, inC, size, classes int, names []string, cfg Config, gen sampleGen) *Dataset {
	d := &Dataset{Name: name, InC: inC, Size: size, Classes: classes, ClassNames: names}
	for i := 0; i < cfg.TrainN; i++ {
		x, y := gen(sampleRNG(cfg.Seed, splitTrain, i))
		d.TrainX = append(d.TrainX, x)
		d.TrainY = append(d.TrainY, y)
	}
	for i := 0; i < cfg.TestN; i++ {
		x, y := gen(sampleRNG(cfg.Seed, splitTest, i))
		d.TestX = append(d.TestX, x)
		d.TestY = append(d.TestY, y)
	}
	return d
}

// Digits generates the MNIST stand-in: 28×28 greyscale stroke digits on
// a near-black background.
func Digits(cfg Config) *Dataset {
	const size = 28
	names := []string{"0", "1", "2", "3", "4", "5", "6", "7", "8", "9"}
	return generate("digits", 1, size, 10, names, cfg, func(rng *rand.Rand) (*tensor.Tensor, int) {
		label := rng.Intn(10)
		cv := NewCanvas(1, size, size)
		cv.FillBackground([]float64{0.02 * rng.Float64()})
		ink := 0.85 + float64(0.15*rng.Float64())
		DrawDigit(cv, label, rng, size, []float64{ink})
		cv.AddNoise(rng, 0.015)
		return cv.Finish(), label
	})
}

// objectNames are the ten shape classes of the CIFAR-10 stand-in.
var objectNames = []string{
	"circle", "square", "triangle", "ring", "cross",
	"hstripes", "vstripes", "checker", "diamond", "twin-dots",
}

// Objects generates the CIFAR-10 stand-in: 32×32 color images of ten
// shape classes with randomized colors, placement, and mild clutter.
// Shape determines the class; color varies freely within a mid-range
// band, giving the intra-class variation that makes brightness and
// contrast corner cases meaningful.
func Objects(cfg Config) *Dataset {
	const size = 32
	return generate("objects", 3, size, 10, objectNames, cfg, func(rng *rand.Rand) (*tensor.Tensor, int) {
		label := rng.Intn(10)
		cv := NewCanvas(3, size, size)
		bg := []float64{
			0.10 + float64(0.30*rng.Float64()),
			0.10 + float64(0.30*rng.Float64()),
			0.10 + float64(0.30*rng.Float64()),
		}
		cv.FillBackground(bg)
		cv.AddTexture(rng, 0.05)
		fg := []float64{
			0.45 + float64(0.45*rng.Float64()),
			0.45 + float64(0.45*rng.Float64()),
			0.45 + float64(0.45*rng.Float64()),
		}
		drawObject(cv, label, rng, size, fg, bg)
		cv.AddNoise(rng, 0.02)
		return cv.Finish(), label
	})
}

func drawObject(cv *Canvas, label int, rng *rand.Rand, size int, fg, bg []float64) {
	s := float64(size)
	cx := float64(s/2) + float64((float64(rng.Float64())-0.5)*0.2*s)
	cy := float64(s/2) + float64((float64(rng.Float64())-0.5)*0.2*s)
	r := float64(s * (0.22 + float64(0.10*rng.Float64())))
	switch label {
	case 0: // circle
		cv.Disk(cx, cy, r, fg)
	case 1: // square
		cv.FillRect(cx-r, cy-r, cx+r, cy+r, fg)
	case 2: // triangle
		cv.FillTriangle(
			[2]float64{cx, cy - float64(1.2*r)},
			[2]float64{cx - float64(1.1*r), cy + float64(0.9*r)},
			[2]float64{cx + float64(1.1*r), cy + float64(0.9*r)}, fg)
	case 3: // ring
		cv.Disk(cx, cy, r, fg)
		cv.Disk(cx, cy, r*0.55, bg)
	case 4: // cross
		w := float64(r * 0.4)
		cv.FillRect(cx-r, cy-w, cx+r, cy+w, fg)
		cv.FillRect(cx-w, cy-r, cx+w, cy+r, fg)
	case 5: // horizontal stripes
		for y := cy - r; y <= cy+r; y += float64(r * 0.55) {
			cv.FillRect(cx-r, y, cx+r, y+float64(r*0.25), fg)
		}
	case 6: // vertical stripes
		for x := cx - r; x <= cx+r; x += float64(r * 0.55) {
			cv.FillRect(x, cy-r, x+float64(r*0.25), cy+r, fg)
		}
	case 7: // checker
		cell := float64(r * 0.6)
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				if (i+j)%2 == 0 {
					x0 := cx - r + float64(float64(i)*cell)
					y0 := cy - r + float64(float64(j)*cell)
					cv.FillRect(x0, y0, x0+cell, y0+cell, fg)
				}
			}
		}
	case 8: // diamond
		cv.FillTriangle(
			[2]float64{cx, cy - float64(1.3*r)},
			[2]float64{cx - r, cy},
			[2]float64{cx + r, cy}, fg)
		cv.FillTriangle(
			[2]float64{cx, cy + float64(1.3*r)},
			[2]float64{cx - r, cy},
			[2]float64{cx + r, cy}, fg)
	case 9: // twin dots
		cv.Disk(cx-float64(0.6*r), cy-float64(0.6*r), 0.55*r, fg)
		cv.Disk(cx+float64(0.6*r), cy+float64(0.6*r), 0.55*r, fg)
	default:
		panic(fmt.Sprintf("dataset: object label %d out of range", label))
	}
}

// StreetDigits generates the SVHN stand-in: 32×32 color digits over
// heavily textured, noisy backgrounds with distractor strokes — the
// "noisy dataset without much data preprocessing" of Section IV-A.
func StreetDigits(cfg Config) *Dataset {
	const size = 32
	names := []string{"0", "1", "2", "3", "4", "5", "6", "7", "8", "9"}
	return generate("streetdigits", 3, size, 10, names, cfg, func(rng *rand.Rand) (*tensor.Tensor, int) {
		label := rng.Intn(10)
		cv := NewCanvas(3, size, size)
		base := 0.15 + float64(0.35*rng.Float64())
		bg := []float64{
			base + float64(0.15*(float64(rng.Float64())-0.5)),
			base + float64(0.15*(float64(rng.Float64())-0.5)),
			base + float64(0.15*(float64(rng.Float64())-0.5)),
		}
		cv.FillBackground(bg)
		cv.AddTexture(rng, 0.12)

		// Digit color contrasts with the background: brighter or darker
		// at random, as house numbers are.
		var ink []float64
		if rng.Float64() < 0.5 {
			ink = []float64{
				minf(base+0.35+float64(0.25*rng.Float64()), 1),
				minf(base+0.35+float64(0.25*rng.Float64()), 1),
				minf(base+0.35+float64(0.25*rng.Float64()), 1),
			}
		} else {
			ink = []float64{
				maxf(base-0.30-float64(0.15*rng.Float64()), 0),
				maxf(base-0.30-float64(0.15*rng.Float64()), 0),
				maxf(base-0.30-float64(0.15*rng.Float64()), 0),
			}
		}

		// Distractor digit fragments at the edges mimic SVHN's cropped
		// neighbours.
		for k := 0; k < 1+rng.Intn(2); k++ {
			st := randomGlyphStyle(rng, size, ink)
			if rng.Float64() < 0.5 {
				st.cx = float64(size) * (0.02 + float64(0.05*rng.Float64()))
			} else {
				st.cx = float64(size) * (0.93 + float64(0.05*rng.Float64()))
			}
			st.scale *= 0.8
			drawGlyphStyled(cv, rng.Intn(10), st)
		}

		DrawDigit(cv, label, rng, size, ink)
		cv.AddNoise(rng, 0.07)
		return cv.Finish(), label
	})
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// ByName returns the generator for one of the three datasets, making
// CLI tools dataset-agnostic.
func ByName(name string, cfg Config) (*Dataset, error) {
	switch name {
	case "digits":
		return Digits(cfg), nil
	case "objects":
		return Objects(cfg), nil
	case "streetdigits":
		return StreetDigits(cfg), nil
	default:
		return nil, fmt.Errorf("dataset: unknown dataset %q (want digits, objects, or streetdigits)", name)
	}
}

// Names lists the available dataset names, in paper order.
func Names() []string { return []string{"digits", "objects", "streetdigits"} }
