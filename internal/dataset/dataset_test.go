package dataset

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"deepvalidation/internal/tensor"
)

func smallCfg() Config { return Config{TrainN: 60, TestN: 30, Seed: 5} }

func TestAllDatasetsBasicShape(t *testing.T) {
	tests := []struct {
		name string
		inC  int
		size int
	}{
		{"digits", 1, 28},
		{"objects", 3, 32},
		{"streetdigits", 3, 32},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			d, err := ByName(tc.name, smallCfg())
			if err != nil {
				t.Fatal(err)
			}
			if d.InC != tc.inC || d.Size != tc.size || d.Classes != 10 {
				t.Fatalf("geometry = (%d,%d,%d classes)", d.InC, d.Size, d.Classes)
			}
			if len(d.TrainX) != 60 || len(d.TestX) != 30 {
				t.Fatalf("split sizes %d/%d", len(d.TrainX), len(d.TestX))
			}
			if len(d.ClassNames) != 10 {
				t.Fatalf("class names: %d", len(d.ClassNames))
			}
			for i, x := range d.TrainX {
				if x.Shape[0] != tc.inC || x.Shape[1] != tc.size || x.Shape[2] != tc.size {
					t.Fatalf("sample %d shape %v", i, x.Shape)
				}
				if x.Min() < 0 || x.Max() > 1 {
					t.Fatalf("sample %d outside [0,1]: [%v, %v]", i, x.Min(), x.Max())
				}
				if y := d.TrainY[i]; y < 0 || y >= 10 {
					t.Fatalf("label %d out of range", y)
				}
			}
		})
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("imagenet", smallCfg()); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestNamesMatchByName(t *testing.T) {
	for _, n := range Names() {
		if _, err := ByName(n, Config{TrainN: 1, TestN: 1, Seed: 1}); err != nil {
			t.Errorf("Names() lists %q but ByName rejects it: %v", n, err)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := Digits(smallCfg())
	b := Digits(smallCfg())
	for i := range a.TrainX {
		if !a.TrainX[i].AllClose(b.TrainX[i], 0) || a.TrainY[i] != b.TrainY[i] {
			t.Fatalf("sample %d differs across identical configs", i)
		}
	}
}

func TestSeedChangesContent(t *testing.T) {
	a := Digits(Config{TrainN: 10, TestN: 0, Seed: 1})
	b := Digits(Config{TrainN: 10, TestN: 0, Seed: 2})
	same := 0
	for i := range a.TrainX {
		if a.TrainX[i].AllClose(b.TrainX[i], 1e-9) {
			same++
		}
	}
	if same == len(a.TrainX) {
		t.Fatal("different seeds produced identical datasets")
	}
}

func TestTrainTestDisjoint(t *testing.T) {
	d := Digits(Config{TrainN: 40, TestN: 40, Seed: 3})
	for i, tr := range d.TrainX {
		for j, te := range d.TestX {
			if tr.AllClose(te, 1e-9) {
				t.Fatalf("train[%d] == test[%d]", i, j)
			}
		}
	}
}

func TestAllClassesRepresented(t *testing.T) {
	for _, name := range Names() {
		d, err := ByName(name, Config{TrainN: 300, TestN: 0, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int, 10)
		for _, y := range d.TrainY {
			counts[y]++
		}
		for k, c := range counts {
			if c == 0 {
				t.Errorf("%s: class %d absent from 300 samples", name, k)
			}
		}
	}
}

func TestDigitsHaveInk(t *testing.T) {
	d := Digits(Config{TrainN: 30, TestN: 0, Seed: 6})
	for i, x := range d.TrainX {
		// A digit must put meaningful ink on a near-black background.
		if x.Mean() < 0.02 || x.Mean() > 0.5 {
			t.Fatalf("sample %d mean intensity %v implausible for a stroke digit", i, x.Mean())
		}
		if x.Max() < 0.7 {
			t.Fatalf("sample %d has no bright stroke (max %v)", i, x.Max())
		}
	}
}

func TestPropertySampleRNGIndependence(t *testing.T) {
	// Distinct (split, index) pairs must give distinct streams.
	f := func(i, j uint8) bool {
		if i == j {
			return true
		}
		a := sampleRNG(1, splitTrain, int(i)).Int63()
		b := sampleRNG(1, splitTrain, int(j)).Int63()
		return a != b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDrawDigitOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	cv := NewCanvas(1, 28, 28)
	DrawDigit(cv, 10, rand.New(rand.NewSource(1)), 28, []float64{1})
}

func TestWritePNMGrey(t *testing.T) {
	img := tensor.New(1, 2, 3).Fill(0.5)
	var buf bytes.Buffer
	if err := WritePNM(&buf, img); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.HasPrefix(s, "P5\n3 2\n255\n") {
		t.Fatalf("bad PGM header: %q", s[:12])
	}
	if buf.Len() != len("P5\n3 2\n255\n")+6 {
		t.Fatalf("pixel payload length %d", buf.Len())
	}
}

func TestWritePNMColor(t *testing.T) {
	img := tensor.New(3, 2, 2)
	var buf bytes.Buffer
	if err := WritePNM(&buf, img); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "P6\n2 2\n255\n") {
		t.Fatalf("bad PPM header")
	}
}

func TestWritePNMRejectsBadShapes(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePNM(&buf, tensor.New(4, 2, 2)); err == nil {
		t.Error("4-channel image accepted")
	}
	if err := WritePNM(&buf, tensor.New(4)); err == nil {
		t.Error("rank-1 tensor accepted")
	}
}

func TestCanvasPrimitives(t *testing.T) {
	cv := NewCanvas(1, 10, 10)
	cv.Disk(5, 5, 2, []float64{1})
	if cv.T.At(0, 5, 5) < 0.9 {
		t.Error("disk center not painted")
	}
	if cv.T.At(0, 0, 0) != 0 {
		t.Error("disk painted far corner")
	}

	cv2 := NewCanvas(1, 10, 10)
	cv2.FillRect(2, 2, 7, 7, []float64{1})
	if cv2.T.At(0, 4, 4) < 0.99 {
		t.Error("rect interior not painted")
	}
	if cv2.T.At(0, 9, 9) != 0 {
		t.Error("rect painted outside")
	}

	cv3 := NewCanvas(1, 10, 10)
	cv3.FillTriangle([2]float64{1, 1}, [2]float64{8, 1}, [2]float64{4, 8}, []float64{1})
	if cv3.T.At(0, 2, 4) < 0.99 {
		t.Error("triangle interior not painted")
	}
	if cv3.T.At(0, 8, 9) != 0 {
		t.Error("triangle painted outside")
	}
}

func TestCanvasBlendOutOfBoundsIsSafe(t *testing.T) {
	cv := NewCanvas(1, 4, 4)
	// Must not panic.
	cv.Disk(-5, -5, 2, []float64{1})
	cv.Line(-3, -3, 10, 10, 1, []float64{1})
	if cv.T.HasNaN() {
		t.Fatal("NaN after out-of-bounds drawing")
	}
}

func TestNoiseClampsRange(t *testing.T) {
	cv := NewCanvas(3, 8, 8)
	cv.FillBackground([]float64{0.5, 0.5, 0.5})
	cv.AddNoise(rand.New(rand.NewSource(1)), 3.0)
	if cv.T.Min() < 0 || cv.T.Max() > 1 {
		t.Fatal("noise escaped [0,1]")
	}
}

func TestPNMRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, c := range []int{1, 3} {
		img := tensor.New(c, 6, 9).FillUniform(rng, 0, 1)
		var buf bytes.Buffer
		if err := WritePNM(&buf, img); err != nil {
			t.Fatal(err)
		}
		back, err := ReadPNM(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !back.SameShape(img) {
			t.Fatalf("round trip shape %v, want %v", back.Shape, img.Shape)
		}
		// 8-bit quantization bounds the round-trip error.
		if !back.AllClose(img, 1.0/255+1e-9) {
			t.Fatal("round trip error exceeds quantization")
		}
	}
}

func TestReadPNMWithComments(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("P5\n# a comment line\n2 2\n# another\n255\n")
	buf.Write([]byte{0, 128, 255, 64})
	img, err := ReadPNM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if img.Shape[1] != 2 || img.Shape[2] != 2 {
		t.Fatalf("shape %v", img.Shape)
	}
	if img.At(0, 0, 1) < 0.49 || img.At(0, 0, 1) > 0.51 {
		t.Fatalf("pixel = %v, want ~0.5", img.At(0, 0, 1))
	}
}

func TestReadPNMErrors(t *testing.T) {
	cases := map[string]string{
		"bad magic":    "P3\n2 2\n255\n",
		"zero width":   "P5\n0 2\n255\n",
		"big maxval":   "P5\n2 2\n65535\n",
		"alpha header": "P5\nxx 2\n255\n",
		"truncated":    "P5\n4 4\n255\nab",
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadPNM(strings.NewReader(data)); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestLoadPNMMissing(t *testing.T) {
	if _, err := LoadPNM("/nonexistent/file.pgm"); err == nil {
		t.Fatal("expected error")
	}
}
