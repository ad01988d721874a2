package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// The SIMD kernels carry a hard contract: bit-identical results to the
// portable Go references on every input, including NaN, ±Inf, -0 and
// denormals. Golden artifacts pin verdict bits end to end, so a single
// ULP of drift in any kernel is a broken build. The tests below are the
// differential battery enforcing that contract: on amd64 they compare
// the dispatched (assembly) kernels against the *Generic references; on
// other GOARCHes dispatch and reference coincide and the battery is a
// tautology, which is exactly the point — the references define the
// semantics.

// specials is the adversarial float corpus every kernel must round-trip
// bit-for-bit. MaxFloat64 products overflow to ±Inf; the denormal
// exercises flush-to-zero misconfigurations (x87/DAZ would flush it).
var specials = []float64{
	0, math.Copysign(0, -1), 1, -1,
	math.NaN(), math.Inf(1), math.Inf(-1),
	math.MaxFloat64, -math.MaxFloat64,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	5e-324, 2.2250738585072014e-308, // smallest denormal, smallest normal
	math.Pi, -math.E, 1e-300, 1e300,
}

// kernelSizes covers the vector-width seams: scalar tails 1..17 span
// every remainder class of the 4-, 8- and 16-wide loops, and the larger
// sizes hit the unrolled main bodies with non-empty tails.
var kernelSizes = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 24, 31, 32, 33, 63, 64, 65, 100, 127, 128, 129, 784}

// fillMixed fills s with random finite values, then splices in entries
// from the specials corpus so every test vector carries a few
// adversarial floats at pseudo-random positions.
func fillMixed(rng *rand.Rand, s []float64) {
	for i := range s {
		s[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(13)-6))
	}
	nSpecial := 1 + len(s)/8
	for k := 0; k < nSpecial; k++ {
		s[rng.Intn(len(s))] = specials[rng.Intn(len(specials))]
	}
}

// bitsEqual compares element-wise with exact bit equality for every
// non-NaN value; two NaNs compare equal regardless of payload. Payload
// propagation through x86 MUL/ADD follows the first-source operand,
// which for compiled Go loops depends on register allocation — two
// bit-identical Go loops can legally disagree on which input NaN's
// payload survives. The class-level contract is the enforceable (and
// sufficient) one: a NaN payload can never become a value difference
// downstream, because ReLU maps every NaN to +0, the pooling compare
// treats every NaN the same, and math.Exp canonicalizes NaN inputs.
func bitsEqual(a, b []float64) (int, bool) {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) &&
			!(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return i, false
		}
	}
	return 0, true
}

// TestAxpy4AsmMatchesGeneric pins the 4-row multiply-add kernel to the
// generic reference with random/NaN/Inf/-0 inputs across all tail
// lengths. (The simd_amd64.s header promises this test by name.)
func TestAxpy4AsmMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range kernelSizes {
		for trial := 0; trial < 20; trial++ {
			d := make([]float64, n)
			want := make([]float64, n)
			rows := make([][]float64, 4)
			coef := make([]float64, 4)
			fillMixed(rng, d)
			copy(want, d)
			for r := range rows {
				rows[r] = make([]float64, n)
				fillMixed(rng, rows[r])
				coef[r] = rng.NormFloat64()
				if trial%5 == 1 {
					coef[r] = specials[rng.Intn(len(specials))]
				}
			}
			axpy4Generic(want, rows[0], rows[1], rows[2], rows[3], coef[0], coef[1], coef[2], coef[3])
			Axpy4(d, rows[0], rows[1], rows[2], rows[3], coef[0], coef[1], coef[2], coef[3])
			if i, ok := bitsEqual(d, want); !ok {
				t.Fatalf("n=%d trial=%d: Axpy4 diverges from generic at [%d]: got %x want %x",
					n, trial, i, math.Float64bits(d[i]), math.Float64bits(want[i]))
			}
		}
	}
}

// TestAxpy8AsmMatchesGeneric pins the fused 8-row kernel to two generic
// 4-row passes — the defining decomposition of Axpy8.
func TestAxpy8AsmMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range kernelSizes {
		for trial := 0; trial < 20; trial++ {
			d := make([]float64, n)
			want := make([]float64, n)
			rows := make([][]float64, 8)
			coef := make([]float64, 8)
			fillMixed(rng, d)
			copy(want, d)
			for r := range rows {
				rows[r] = make([]float64, n)
				fillMixed(rng, rows[r])
				coef[r] = rng.NormFloat64()
				if trial%5 == 2 {
					coef[r] = specials[rng.Intn(len(specials))]
				}
			}
			axpy4Generic(want, rows[0], rows[1], rows[2], rows[3], coef[0], coef[1], coef[2], coef[3])
			axpy4Generic(want, rows[4], rows[5], rows[6], rows[7], coef[4], coef[5], coef[6], coef[7])
			Axpy8(d, rows[0], rows[1], rows[2], rows[3], rows[4], rows[5], rows[6], rows[7],
				coef[0], coef[1], coef[2], coef[3], coef[4], coef[5], coef[6], coef[7])
			if i, ok := bitsEqual(d, want); !ok {
				t.Fatalf("n=%d trial=%d: Axpy8 diverges from generic at [%d]: got %x want %x",
					n, trial, i, math.Float64bits(d[i]), math.Float64bits(want[i]))
			}
		}
	}
}

// TestAxpyAsmMatchesGeneric pins the single-row kernel.
func TestAxpyAsmMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, n := range kernelSizes {
		for trial := 0; trial < 20; trial++ {
			d := make([]float64, n)
			want := make([]float64, n)
			b := make([]float64, n)
			fillMixed(rng, d)
			copy(want, d)
			fillMixed(rng, b)
			a := rng.NormFloat64()
			if trial%4 == 3 {
				a = specials[rng.Intn(len(specials))]
			}
			axpy1Generic(want, b, a)
			Axpy(d, b, a)
			if i, ok := bitsEqual(d, want); !ok {
				t.Fatalf("n=%d trial=%d a=%x: Axpy diverges from generic at [%d]: got %x want %x",
					n, trial, math.Float64bits(a), i, math.Float64bits(d[i]), math.Float64bits(want[i]))
			}
		}
	}
}

// TestAddConstIntoMatchesGeneric pins the bias-broadcast kernel.
func TestAddConstIntoMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, n := range kernelSizes {
		for trial := 0; trial < 10; trial++ {
			d := make([]float64, n)
			want := make([]float64, n)
			fillMixed(rng, d)
			copy(want, d)
			c := rng.NormFloat64()
			if trial%3 == 0 {
				c = specials[rng.Intn(len(specials))]
			}
			addConstGeneric(want, c)
			AddConstInto(d, c)
			if i, ok := bitsEqual(d, want); !ok {
				t.Fatalf("n=%d trial=%d c=%x: AddConstInto diverges at [%d]: got %x want %x",
					n, trial, math.Float64bits(c), i, math.Float64bits(d[i]), math.Float64bits(want[i]))
			}
		}
	}
}

// TestReLUIntoMatchesGeneric pins the rectifier: the comparison is
// exactly v > 0, so NaN and -0 both map to +0 — the vector compare must
// use an ordered GT predicate to match.
func TestReLUIntoMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, n := range kernelSizes {
		for trial := 0; trial < 10; trial++ {
			src := make([]float64, n)
			fillMixed(rng, src)
			want := make([]float64, n)
			got := make([]float64, n)
			reluGeneric(want, src)
			ReLUInto(got, src)
			if i, ok := bitsEqual(got, want); !ok {
				t.Fatalf("n=%d trial=%d: ReLUInto diverges at [%d]: src %x got %x want %x",
					n, trial, i, math.Float64bits(src[i]), math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
			// In-place form: dst aliasing src is part of the contract.
			inPlace := make([]float64, n)
			copy(inPlace, src)
			ReLUInto(inPlace, inPlace)
			if i, ok := bitsEqual(inPlace, want); !ok {
				t.Fatalf("n=%d trial=%d: in-place ReLUInto diverges at [%d]", n, trial, i)
			}
		}
	}
}

// TestReLUIntoSpecialValuesExact spells out the rectifier's edge table
// explicitly rather than trusting the random corpus to cover it.
func TestReLUIntoSpecialValuesExact(t *testing.T) {
	src := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 5e-324, -5e-324, 1.5, -1.5}
	want := []float64{0, math.Inf(1), 0, 0, 0, 5e-324, 0, 1.5, 0}
	got := make([]float64, len(src))
	ReLUInto(got, src)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("ReLU(%x) = %x, want %x", math.Float64bits(src[i]), math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestAxpyKernelsEmptyAndShortSlices guards the len==0 dispatch path
// (taking &d[0] of an empty slice would panic).
func TestAxpyKernelsEmptyAndShortSlices(t *testing.T) {
	empty := []float64{}
	Axpy(empty, empty, 2)
	Axpy4(empty, empty, empty, empty, empty, 1, 2, 3, 4)
	Axpy8(empty, empty, empty, empty, empty, empty, empty, empty, empty, 1, 2, 3, 4, 5, 6, 7, 8)
	AddConstInto(empty, 1)
	ReLUInto(empty, empty)

	// b longer than d: only len(d) elements may be touched.
	d := []float64{1}
	b := []float64{10, math.NaN()}
	Axpy(d, b, 2)
	if d[0] != 21 {
		t.Fatalf("Axpy short dst: got %v, want 21", d[0])
	}
}

// TestMatMulBlockedMatchesNaive pins the cache-blocked/SIMD matMulInto
// against the plain i-p-j triple loop with the zero-skip — the original
// scalar semantics — across shapes straddling every block boundary,
// with zeros dense enough to force the scalar fallback rows and
// specials to verify NaN/Inf propagation through the skip logic.
func TestMatMulBlockedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	shapes := [][3]int{
		{1, 1, 1}, {1, 8, 1}, {3, 4, 5}, {4, 9, 7}, {5, 16, 11},
		{6, 54, 676}, {12, 108, 676}, {32, 588, 1}, {7, 17, 130}, {2, 100, 100},
	}
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		for trial := 0; trial < 6; trial++ {
			a := New(m, k)
			b := New(k, n)
			fillMixed(rng, a.Data)
			fillMixed(rng, b.Data)
			// Sprinkle zeros into a to exercise the hasZero fallback.
			for z := 0; z < m*k/5+1; z++ {
				a.Data[rng.Intn(m*k)] = 0
			}
			want := make([]float64, m*n)
			for i := 0; i < m; i++ {
				for p := 0; p < k; p++ {
					av := a.Data[i*k+p]
					if av == 0 {
						continue
					}
					for j := 0; j < n; j++ {
						want[i*n+j] += av * b.Data[p*n+j]
					}
				}
			}
			dst := New(m, n)
			MatMulInto(dst, a, b)
			if i, ok := bitsEqual(dst.Data, want); !ok {
				t.Fatalf("(%dx%d)x(%dx%d) trial=%d: blocked matmul diverges at [%d]: got %x want %x",
					m, k, k, n, trial, i, math.Float64bits(dst.Data[i]), math.Float64bits(want[i]))
			}
		}
	}
}

// TestMatVecIntoMatchesMatVec pins the 4-row-blocked MatVecInto against
// the reference MatVec across row-count remainders 0..3.
func TestMatVecIntoMatchesMatVec(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, m := range []int{1, 2, 3, 4, 5, 7, 8, 32, 33, 588} {
		for _, n := range []int{1, 3, 32, 100} {
			a := New(m, n)
			x := New(n)
			fillMixed(rng, a.Data)
			fillMixed(rng, x.Data)
			want := MatVec(a, x)
			dst := New(m)
			MatVecInto(dst, a, x)
			if i, ok := bitsEqual(dst.Data, want.Data); !ok {
				t.Fatalf("(%dx%d): MatVecInto diverges at [%d]: got %x want %x",
					m, n, i, math.Float64bits(dst.Data[i]), math.Float64bits(want.Data[i]))
			}
		}
	}
}

// FuzzAxpyKernelEquivalence drives the axpy family from fuzzed bytes:
// any byte string decodes to a (length, coefficients, data) triple and
// the assembly must match the generic reference bit-for-bit.
func FuzzAxpyKernelEquivalence(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte{0xff, 0xf0, 0, 0, 0, 0, 0, 1, 0x7f, 0xf8, 0, 0, 0, 0, 0, 1, 0x80, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 16 {
			return
		}
		n := int(raw[0])%65 + 1
		// Decode float64s cyclically from the raw bytes.
		nextF := func(i int) float64 {
			var u uint64
			for k := 0; k < 8; k++ {
				u = u<<8 | uint64(raw[(i*8+k)%len(raw)])
			}
			return math.Float64frombits(u)
		}
		d := make([]float64, n)
		b := make([][]float64, 8)
		coef := make([]float64, 8)
		for j := range d {
			d[j] = nextF(j)
		}
		for r := range b {
			b[r] = make([]float64, n)
			for j := range b[r] {
				b[r][j] = nextF(n + r*n + j)
			}
			coef[r] = nextF(9*n + r)
		}
		want := make([]float64, n)

		copy(want, d)
		got := make([]float64, n)
		copy(got, d)
		axpy1Generic(want, b[0], coef[0])
		Axpy(got, b[0], coef[0])
		if i, ok := bitsEqual(got, want); !ok {
			t.Fatalf("Axpy diverges at [%d]", i)
		}

		copy(want, d)
		copy(got, d)
		axpy4Generic(want, b[0], b[1], b[2], b[3], coef[0], coef[1], coef[2], coef[3])
		Axpy4(got, b[0], b[1], b[2], b[3], coef[0], coef[1], coef[2], coef[3])
		if i, ok := bitsEqual(got, want); !ok {
			t.Fatalf("Axpy4 diverges at [%d]", i)
		}

		copy(want, d)
		copy(got, d)
		axpy4Generic(want, b[0], b[1], b[2], b[3], coef[0], coef[1], coef[2], coef[3])
		axpy4Generic(want, b[4], b[5], b[6], b[7], coef[4], coef[5], coef[6], coef[7])
		Axpy8(got, b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
			coef[0], coef[1], coef[2], coef[3], coef[4], coef[5], coef[6], coef[7])
		if i, ok := bitsEqual(got, want); !ok {
			t.Fatalf("Axpy8 diverges at [%d]", i)
		}
	})
}

func benchAxpy(b *testing.B, n int, fn func(d, r0, r1, r2, r3 []float64)) {
	d := make([]float64, n)
	rows := make([][]float64, 4)
	rng := rand.New(rand.NewSource(7))
	for r := range rows {
		rows[r] = make([]float64, n)
		for j := range rows[r] {
			rows[r][j] = rng.NormFloat64()
		}
	}
	b.SetBytes(int64(n * 8 * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn(d, rows[0], rows[1], rows[2], rows[3])
	}
}

func BenchmarkAxpy4Dispatch784(b *testing.B) {
	benchAxpy(b, 784, func(d, r0, r1, r2, r3 []float64) {
		Axpy4(d, r0, r1, r2, r3, 1.1, 2.2, 3.3, 4.4)
	})
}

func BenchmarkAxpy4Generic784(b *testing.B) {
	benchAxpy(b, 784, func(d, r0, r1, r2, r3 []float64) {
		axpy4Generic(d, r0, r1, r2, r3, 1.1, 2.2, 3.3, 4.4)
	})
}
