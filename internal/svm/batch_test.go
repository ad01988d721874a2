package svm

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// Differential-equivalence battery for the batched decision path.
// DecisionBatchInto is the serving path and must agree with the scalar
// Decision bit-for-bit on every non-NaN output; NaN outputs must agree
// as NaNs (payload propagation through compiled loops is register-
// allocation dependent and carries no information — see the tensor
// package's SIMD battery for the full argument).

var svmSpecials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
	0, math.MaxFloat64, 5e-324, -1e300,
}

// randModel builds a OneClass directly, bypassing Train, so the battery
// controls support-vector counts and dimensions exactly — including
// shapes Train would never emit (single SV, remainder counts around the
// 4-SV blocking seam).
func randModel(rng *rand.Rand, nsv, dim int) *OneClass {
	m := &OneClass{
		Kind:  KernelRBF,
		Gamma: 0.01 + rng.Float64(),
		Nu:    0.1,
		Rho:   rng.NormFloat64(),
		Dim:   dim,
	}
	for i := 0; i < nsv; i++ {
		sv := make([]float64, dim)
		for j := range sv {
			sv[j] = rng.NormFloat64()
		}
		m.Support = append(m.Support, sv)
		m.Alpha = append(m.Alpha, rng.Float64())
	}
	return m
}

func randBatch(rng *rand.Rand, n, dim int, withSpecials bool) [][]float64 {
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = make([]float64, dim)
		for j := range xs[i] {
			xs[i][j] = rng.NormFloat64() * 3
		}
		if withSpecials && i%2 == 1 {
			for k := 0; k < 1+dim/4; k++ {
				xs[i][rng.Intn(dim)] = svmSpecials[rng.Intn(len(svmSpecials))]
			}
		}
	}
	return xs
}

func sameVerdictBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) ||
		(math.IsNaN(a) && math.IsNaN(b))
}

// TestDecisionBatchMatchesDecision is the core differential table: SV
// counts straddling the 4-SV blocking seam, several dims, batch sizes
// 1..N, and rows salted with NaN/±Inf/-0.
func TestDecisionBatchMatchesDecision(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, nsv := range []int{1, 2, 3, 4, 5, 7, 8, 9, 60} {
		for _, dim := range []int{1, 2, 7, 32, 128} {
			m := randModel(rng, nsv, dim)
			for _, batch := range []int{1, 2, 5} {
				xs := randBatch(rng, batch, dim, true)
				got := m.DecisionBatchInto(make([]float64, batch), xs)
				for bi, x := range xs {
					want := m.Decision(x)
					if !sameVerdictBits(got[bi], want) {
						t.Fatalf("nsv=%d dim=%d row=%d: batch %x scalar %x",
							nsv, dim, bi, math.Float64bits(got[bi]), math.Float64bits(want))
					}
				}
			}
		}
	}
}

// TestDecisionBatchIntoReusesDst pins the in-place form: scalar bits,
// dst returned, and an empty batch is a no-op.
func TestDecisionBatchIntoReusesDst(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	m := randModel(rng, 6, 16)
	xs := randBatch(rng, 4, 16, false)
	dst := make([]float64, 4)
	out := m.DecisionBatchInto(dst, xs)
	if &out[0] != &dst[0] {
		t.Fatal("DecisionBatchInto did not return dst")
	}
	for i, x := range xs {
		if want := m.Decision(x); math.Float64bits(out[i]) != math.Float64bits(want) {
			t.Fatalf("row %d: into %x scalar %x", i, math.Float64bits(out[i]), math.Float64bits(want))
		}
	}
	if got := m.DecisionBatchInto(nil, nil); len(got) != 0 {
		t.Fatalf("empty batch returned %d results", len(got))
	}
}

// TestDecisionBatchPanics pins the dst-length and feature-dim guards.
func TestDecisionBatchPanics(t *testing.T) {
	m := randModel(rand.New(rand.NewSource(106)), 3, 4)
	mustPanic := func(name, want string, fn func()) {
		t.Helper()
		defer func() {
			t.Helper()
			r := recover()
			if r == nil {
				t.Errorf("%s did not panic", name)
			} else if msg := fmt.Sprint(r); msg != want {
				t.Errorf("%s panicked with %q, want %q", name, msg, want)
			}
		}()
		fn()
	}
	mustPanic("short dst", "svm: DecisionBatchInto dst holds 1 slots for 2 inputs", func() {
		m.DecisionBatchInto(make([]float64, 1), make([][]float64, 2))
	})
	mustPanic("dim mismatch", "svm: DecisionBatchInto input has 2 features, model expects 4", func() {
		m.DecisionBatchInto(make([]float64, 1), [][]float64{{1, 2}})
	})
}

// TestDecisionBatchSteadyStateAllocs is the allocation-budget guard:
// once Flatten has built the support-vector matrix, batched scoring
// must allocate nothing.
func TestDecisionBatchSteadyStateAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race-detector instrumentation allocates; budgets apply to plain builds")
	}
	rng := rand.New(rand.NewSource(107))
	m := randModel(rng, 8, 16)
	xs := randBatch(rng, 6, 16, false)
	dst := make([]float64, len(xs))
	m.Flatten()
	if n := testing.AllocsPerRun(50, func() {
		m.DecisionBatchInto(dst, xs)
	}); n != 0 {
		t.Errorf("DecisionBatchInto allocates %.1f/op in steady state, want 0", n)
	}
}

// TestConcurrentDecisionBatch scores shared models from several
// goroutines: a trained model, whose matrix Train built, and a model
// Flatten never touched, which each call scores from its own copy.
// Decisions only read the model, so the race detector stays quiet and
// every goroutine sees the scalar bits.
func TestConcurrentDecisionBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	data := randBatch(rng, 40, 12, false)
	trained, err := Train(data, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	xs := randBatch(rng, 5, 12, true)
	for _, m := range []*OneClass{trained, randModel(rng, 9, 12)} {
		want := make([]float64, len(xs))
		for i, x := range xs {
			want[i] = m.Decision(x)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				dst := make([]float64, len(xs))
				for r := 0; r < 20; r++ {
					m.DecisionBatchInto(dst, xs)
					for i := range want {
						if !sameVerdictBits(dst[i], want[i]) {
							t.Errorf("row %d: concurrent %x scalar %x", i, math.Float64bits(dst[i]), math.Float64bits(want[i]))
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	}
}

// FuzzDecisionBatchEquivalence decodes arbitrary bytes into a model and
// batch — SV count, dim, batch size, and every float drawn from the raw
// input — and requires the batched verdicts to match the
// scalar ones (bit-exact for non-NaN, NaN-class otherwise), both for
// the model as built and for a copy whose support vectors went through
// Flatten, the single-copy step DecodeValidator applies.
func FuzzDecisionBatchEquivalence(f *testing.F) {
	f.Add([]byte{0, 4, 3, 2, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{1, 1, 1, 1, 0x7f, 0xf0, 0, 0, 0, 0, 0, 0, 0xff, 0xf0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{2, 9, 5, 3, 0x7f, 0xf8, 0, 0, 0, 0, 0, 1, 0x80, 0, 0, 0, 0, 0, 0, 0, 13, 200})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 8 {
			return
		}
		// raw[0] is unread, so the seeds keep decoding to the same shapes.
		nsv := int(raw[1])%9 + 1
		dim := int(raw[2])%17 + 1
		batch := int(raw[3])%5 + 1
		nextF := func(i int) float64 {
			var u uint64
			for k := 0; k < 8; k++ {
				u = u<<8 | uint64(raw[(4+i*8+k)%len(raw)])
			}
			return math.Float64frombits(u)
		}
		fi := 0
		next := func() float64 { v := nextF(fi); fi++; return v }
		m := &OneClass{Kind: KernelRBF, Dim: dim}
		m.Gamma = math.Abs(next())
		if math.IsInf(m.Gamma, 0) || math.IsNaN(m.Gamma) || m.Gamma == 0 {
			m.Gamma = 0.5
		}
		m.Rho = next()
		for i := 0; i < nsv; i++ {
			sv := make([]float64, dim)
			for j := range sv {
				sv[j] = next()
			}
			m.Support = append(m.Support, sv)
			m.Alpha = append(m.Alpha, next())
		}
		xs := make([][]float64, batch)
		for i := range xs {
			xs[i] = make([]float64, dim)
			for j := range xs[i] {
				xs[i][j] = next()
			}
		}
		flat := &OneClass{Kind: m.Kind, Gamma: m.Gamma, Rho: m.Rho,
			Dim: m.Dim, Support: append([][]float64(nil), m.Support...), Alpha: m.Alpha}
		flat.Flatten()
		got := m.DecisionBatchInto(make([]float64, batch), xs)
		gotFlat := flat.DecisionBatchInto(make([]float64, batch), xs)
		for bi, x := range xs {
			want := m.Decision(x)
			if !sameVerdictBits(got[bi], want) {
				t.Fatalf("nsv=%d dim=%d row=%d: batch %x scalar %x",
					nsv, dim, bi, math.Float64bits(got[bi]), math.Float64bits(want))
			}
			if !sameVerdictBits(gotFlat[bi], want) {
				t.Fatalf("nsv=%d dim=%d row=%d: flattened batch %x scalar %x",
					nsv, dim, bi, math.Float64bits(gotFlat[bi]), math.Float64bits(want))
			}
		}
	})
}

func BenchmarkDecisionBatchRBF(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	m := randModel(rng, 60, 128)
	xs := randBatch(rng, 16, 128, false)
	dst := make([]float64, len(xs))
	m.DecisionBatchInto(dst, xs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.DecisionBatchInto(dst, xs)
	}
}

func BenchmarkDecisionScalarRBF(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	m := randModel(rng, 60, 128)
	xs := randBatch(rng, 16, 128, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, x := range xs {
			m.Decision(x)
		}
	}
}
