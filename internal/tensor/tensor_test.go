package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroFilled(t *testing.T) {
	ts := New(2, 3, 4)
	if ts.Len() != 24 {
		t.Fatalf("Len() = %d, want 24", ts.Len())
	}
	if ts.Rank() != 3 {
		t.Fatalf("Rank() = %d, want 3", ts.Rank())
	}
	for i, v := range ts.Data {
		if v != 0 {
			t.Fatalf("Data[%d] = %v, want 0", i, v)
		}
	}
}

func TestNewScalar(t *testing.T) {
	s := New()
	if s.Len() != 1 {
		t.Fatalf("scalar Len() = %d, want 1", s.Len())
	}
}

func TestNewNegativeDimPanics(t *testing.T) {
	defer expectPanic(t, "negative dimension")
	New(2, -1)
}

func TestFromLengthMismatchPanics(t *testing.T) {
	defer expectPanic(t, "From length mismatch")
	From([]float64{1, 2, 3}, 2, 2)
}

func TestAtSetRowMajor(t *testing.T) {
	ts := New(2, 3)
	ts.Set(7, 1, 2)
	if got := ts.Data[5]; got != 7 {
		t.Fatalf("row-major offset: Data[5] = %v, want 7", got)
	}
	if got := ts.At(1, 2); got != 7 {
		t.Fatalf("At(1,2) = %v, want 7", got)
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	defer expectPanic(t, "index out of range")
	New(2, 2).At(2, 0)
}

func TestAtWrongArityPanics(t *testing.T) {
	defer expectPanic(t, "wrong index arity")
	New(2, 2).At(1)
}

func TestCloneIndependence(t *testing.T) {
	a := From([]float64{1, 2, 3}, 3)
	b := a.Clone()
	b.Data[0] = 99
	if a.Data[0] != 1 {
		t.Fatal("Clone shares backing data with original")
	}
	b.Shape[0] = 5
	if a.Shape[0] != 3 {
		t.Fatal("Clone shares shape slice with original")
	}
}

func TestReshapeSharesData(t *testing.T) {
	a := From([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := a.Reshape(3, 2)
	b.Data[0] = 42
	if a.Data[0] != 42 {
		t.Fatal("Reshape should share backing data")
	}
}

func TestReshapeInfer(t *testing.T) {
	a := New(4, 6)
	b := a.Reshape(-1, 8)
	if b.Shape[0] != 3 || b.Shape[1] != 8 {
		t.Fatalf("Reshape(-1, 8) shape = %v, want [3 8]", b.Shape)
	}
}

func TestReshapeBadCountPanics(t *testing.T) {
	defer expectPanic(t, "reshape element count mismatch")
	New(2, 3).Reshape(4, 2)
}

func TestReshapeTwoInferPanics(t *testing.T) {
	defer expectPanic(t, "two inferred dims")
	New(2, 3).Reshape(-1, -1)
}

func TestElementwiseOps(t *testing.T) {
	a := From([]float64{1, 2, 3, 4}, 2, 2)
	b := From([]float64{10, 20, 30, 40}, 2, 2)

	tests := []struct {
		name string
		got  *Tensor
		want []float64
	}{
		{"Add", a.Add(b), []float64{11, 22, 33, 44}},
		{"Sub", b.Sub(a), []float64{9, 18, 27, 36}},
		{"Scale", a.Scale(2), []float64{2, 4, 6, 8}},
		{"Axpy", a.Clone().AxpyInPlace(0.5, b), []float64{6, 12, 18, 24}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			for i, w := range tc.want {
				if tc.got.Data[i] != w {
					t.Fatalf("%s element %d = %v, want %v", tc.name, i, tc.got.Data[i], w)
				}
			}
		})
	}
	// Originals untouched by the non-in-place forms.
	if a.Data[0] != 1 || b.Data[0] != 10 {
		t.Fatal("non-in-place ops mutated their operands")
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	defer expectPanic(t, "shape mismatch")
	New(2, 2).AddInPlace(New(4))
}

func TestClamp(t *testing.T) {
	a := From([]float64{-2, 0.5, 3}, 3).ClampInPlace(0, 1)
	want := []float64{0, 0.5, 1}
	for i, w := range want {
		if a.Data[i] != w {
			t.Fatalf("Clamp element %d = %v, want %v", i, a.Data[i], w)
		}
	}
}

func TestReductions(t *testing.T) {
	a := From([]float64{3, -1, 4, -1, 5}, 5)
	if got := a.Sum(); got != 10 {
		t.Errorf("Sum = %v, want 10", got)
	}
	if got := a.Mean(); got != 2 {
		t.Errorf("Mean = %v, want 2", got)
	}
	if got := a.Max(); got != 5 {
		t.Errorf("Max = %v, want 5", got)
	}
	if got := a.Min(); got != -1 {
		t.Errorf("Min = %v, want -1", got)
	}
	if got := a.ArgMax(); got != 4 {
		t.Errorf("ArgMax = %v, want 4", got)
	}
	if got := a.L1Norm(); got != 14 {
		t.Errorf("L1Norm = %v, want 14", got)
	}
	if got := a.LInfNorm(); got != 5 {
		t.Errorf("LInfNorm = %v, want 5", got)
	}
	if got := a.L2Norm(); math.Abs(got-math.Sqrt(52)) > 1e-12 {
		t.Errorf("L2Norm = %v, want sqrt(52)", got)
	}
	if got := a.L0Norm(); got != 5 {
		t.Errorf("L0Norm = %v, want 5", got)
	}
	if got := From([]float64{0, 1, 0}, 3).L0Norm(); got != 1 {
		t.Errorf("L0Norm sparse = %v, want 1", got)
	}
}

func TestArgMaxTieLowestIndex(t *testing.T) {
	a := From([]float64{2, 5, 5, 1}, 4)
	if got := a.ArgMax(); got != 1 {
		t.Fatalf("ArgMax tie = %d, want 1", got)
	}
}

func TestEmptyReductionsPanic(t *testing.T) {
	empty := New(0)
	for name, fn := range map[string]func(){
		"Max":    func() { empty.Max() },
		"Min":    func() { empty.Min() },
		"ArgMax": func() { empty.ArgMax() },
	} {
		t.Run(name, func(t *testing.T) {
			defer expectPanic(t, name+" of empty")
			fn()
		})
	}
	if got := empty.Mean(); got != 0 {
		t.Errorf("Mean of empty = %v, want 0", got)
	}
}

func TestDot(t *testing.T) {
	a := From([]float64{1, 2, 3}, 3)
	b := From([]float64{4, 5, 6}, 3)
	if got := a.Dot(b); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestHasNaN(t *testing.T) {
	a := From([]float64{1, 2}, 2)
	if a.HasNaN() {
		t.Error("finite tensor reported NaN")
	}
	a.Data[1] = math.NaN()
	if !a.HasNaN() {
		t.Error("NaN not detected")
	}
	a.Data[1] = math.Inf(1)
	if !a.HasNaN() {
		t.Error("Inf not detected")
	}
}

func TestAllClose(t *testing.T) {
	a := From([]float64{1, 2}, 2)
	b := From([]float64{1.0001, 2}, 2)
	if !a.AllClose(b, 1e-3) {
		t.Error("AllClose should accept within tolerance")
	}
	if a.AllClose(b, 1e-6) {
		t.Error("AllClose should reject outside tolerance")
	}
	if a.AllClose(New(3), 1) {
		t.Error("AllClose should reject shape mismatch")
	}
}

func TestApplyMap(t *testing.T) {
	a := From([]float64{1, 4, 9}, 3)
	b := a.Map(math.Sqrt)
	if a.Data[1] != 4 {
		t.Error("Map mutated its receiver")
	}
	if b.Data[2] != 3 {
		t.Errorf("Map result = %v, want 3", b.Data[2])
	}
	a.Apply(func(x float64) float64 { return -x })
	if a.Data[0] != -1 {
		t.Error("Apply did not mutate in place")
	}
}

func TestStringTruncates(t *testing.T) {
	long := New(100)
	s := long.String()
	if len(s) > 200 {
		t.Errorf("String of large tensor too long: %d chars", len(s))
	}
}

// Property: (a+b)-b == a for arbitrary vectors.
func TestPropertyAddSubRoundTrip(t *testing.T) {
	f := func(av, bv []float64) bool {
		n := len(av)
		if len(bv) < n {
			n = len(bv)
		}
		if n == 0 {
			return true
		}
		a := From(append([]float64(nil), av[:n]...), n)
		b := From(append([]float64(nil), bv[:n]...), n)
		for i := 0; i < n; i++ {
			// Keep values in a sane range to avoid float cancellation noise.
			a.Data[i] = math.Mod(a.Data[i], 1e6)
			b.Data[i] = math.Mod(b.Data[i], 1e6)
			if math.IsNaN(a.Data[i]) || math.IsNaN(b.Data[i]) {
				return true
			}
		}
		got := a.Add(b).Sub(b)
		return got.AllClose(a, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: scaling by s then 1/s is the identity for non-tiny s.
func TestPropertyScaleRoundTrip(t *testing.T) {
	f := func(vals []float64, s float64) bool {
		if len(vals) == 0 {
			return true
		}
		s = math.Mod(math.Abs(s), 100) + 0.5
		a := New(len(vals))
		for i, v := range vals {
			a.Data[i] = math.Mod(v, 1e6)
			if math.IsNaN(a.Data[i]) {
				return true
			}
		}
		got := a.Scale(s).ScaleInPlace(1 / s)
		return got.AllClose(a, 1e-6*s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFillUniformRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := New(1000).FillUniform(rng, -2, 3)
	for i, v := range a.Data {
		if v < -2 || v >= 3 {
			t.Fatalf("FillUniform element %d = %v outside [-2, 3)", i, v)
		}
	}
}

func TestFillNormalMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := New(20000).FillNormal(rng, 5, 2)
	mean := a.Mean()
	if math.Abs(mean-5) > 0.1 {
		t.Errorf("FillNormal mean = %v, want ~5", mean)
	}
	varSum := 0.0
	for _, v := range a.Data {
		varSum += (v - mean) * (v - mean)
	}
	sd := math.Sqrt(varSum / float64(a.Len()))
	if math.Abs(sd-2) > 0.1 {
		t.Errorf("FillNormal stddev = %v, want ~2", sd)
	}
}

func TestFillGlorotBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	fanIn, fanOut := 50, 30
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	a := New(500).FillGlorot(rng, fanIn, fanOut)
	for i, v := range a.Data {
		if math.Abs(v) > limit {
			t.Fatalf("FillGlorot element %d = %v exceeds limit %v", i, v, limit)
		}
	}
}

func TestFillHeDeterministic(t *testing.T) {
	a := New(64).FillHe(rand.New(rand.NewSource(7)), 128)
	b := New(64).FillHe(rand.New(rand.NewSource(7)), 128)
	if !a.AllClose(b, 0) {
		t.Fatal("FillHe with same seed should be deterministic")
	}
}

func expectPanic(t *testing.T, what string) {
	t.Helper()
	if recover() == nil {
		t.Fatalf("expected panic: %s", what)
	}
}
