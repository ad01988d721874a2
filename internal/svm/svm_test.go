package svm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// gaussianCluster samples n points from N(center, sigma²·I) in dim d.
func gaussianCluster(rng *rand.Rand, n, d int, center, sigma float64) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		row := make([]float64, d)
		for j := range row {
			row[j] = center + sigma*rng.NormFloat64()
		}
		out[i] = row
	}
	return out
}

func TestTrainSeparatesClusterFromOutliers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := gaussianCluster(rng, 200, 2, 0, 1)
	m, err := Train(data, Config{Nu: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	// Center of the cluster: clearly inside.
	if d := m.Decision([]float64{0, 0}); d <= 0 {
		t.Fatalf("decision at cluster center = %v, want > 0", d)
	}
	// Far away: clearly outside.
	if d := m.Decision([]float64{10, 10}); d >= 0 {
		t.Fatalf("decision far from cluster = %v, want < 0", d)
	}
}

func TestNuControlsTrainingOutlierFraction(t *testing.T) {
	// The ν-property: the fraction of training points classified as
	// outliers is at most ν (asymptotically ≈ ν), and the fraction of
	// support vectors is at least ν.
	rng := rand.New(rand.NewSource(2))
	data := gaussianCluster(rng, 300, 3, 0, 1)
	for _, nu := range []float64{0.05, 0.1, 0.3} {
		m, err := Train(data, Config{Nu: nu})
		if err != nil {
			t.Fatal(err)
		}
		outliers := 0
		for _, x := range data {
			if m.Decision(x) < 0 {
				outliers++
			}
		}
		frac := float64(outliers) / float64(len(data))
		if frac > nu+0.05 {
			t.Errorf("nu=%v: training outlier fraction %v exceeds nu", nu, frac)
		}
		svFrac := float64(len(m.Support)) / float64(len(data))
		if svFrac < nu-0.05 {
			t.Errorf("nu=%v: SV fraction %v below nu", nu, svFrac)
		}
	}
}

func TestAlphaConstraints(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := gaussianCluster(rng, 150, 2, 0, 1)
	nu := 0.2
	m, err := Train(data, Config{Nu: nu})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, a := range m.Alpha {
		if a < -1e-12 || a > 1+1e-12 {
			t.Fatalf("alpha %v outside [0,1]", a)
		}
		sum += a
	}
	want := nu * float64(len(data))
	if math.Abs(sum-want) > 1e-6 {
		t.Fatalf("sum(alpha) = %v, want %v", sum, want)
	}
}

func TestDecisionContinuityNearBoundary(t *testing.T) {
	// Walking outward from the center, the decision value must
	// decrease (RBF on an isotropic cluster).
	rng := rand.New(rand.NewSource(4))
	data := gaussianCluster(rng, 200, 2, 0, 1)
	m, err := Train(data, Config{Nu: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	// The surface need not be strictly radially monotone, but moving
	// clearly outside the cluster must strictly lower the score.
	d0 := m.Decision([]float64{0, 0})
	d3 := m.Decision([]float64{3, 0})
	d6 := m.Decision([]float64{6, 0})
	if !(d0 > d3 && d3 > d6) {
		t.Fatalf("decision not decreasing outward: f(0)=%v f(3)=%v f(6)=%v", d0, d3, d6)
	}
}

func TestTrainValidation(t *testing.T) {
	good := [][]float64{{1, 2}, {3, 4}}
	tests := []struct {
		name string
		data [][]float64
		cfg  Config
	}{
		{"empty", nil, DefaultConfig()},
		{"zero-dim", [][]float64{{}}, DefaultConfig()},
		{"ragged", [][]float64{{1, 2}, {3}}, DefaultConfig()},
		{"nu zero", good, Config{Nu: 0}},
		{"nu > 1", good, Config{Nu: 1.5}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Train(tc.data, tc.cfg); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestDecisionDimMismatchPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m, err := Train(gaussianCluster(rng, 50, 2, 0, 1), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Decision([]float64{1, 2, 3})
}

func TestDeterministicTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := gaussianCluster(rng, 120, 3, 0, 1)
	a, err := Train(data, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(data, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.Rho != b.Rho || len(a.Support) != len(b.Support) {
		t.Fatal("training is not deterministic")
	}
}

func TestScaleGammaHeuristic(t *testing.T) {
	// For unit-variance data in d dims, gamma ≈ 1/d.
	rng := rand.New(rand.NewSource(8))
	data := gaussianCluster(rng, 2000, 4, 0, 1)
	g := scaleGamma(data)
	if g < 0.15 || g > 0.40 {
		t.Fatalf("scale gamma = %v, want ≈ 0.25", g)
	}
	// Constant data must not divide by zero.
	if g := scaleGamma([][]float64{{1, 1}, {1, 1}}); math.IsInf(g, 0) || math.IsNaN(g) {
		t.Fatalf("degenerate gamma = %v", g)
	}
}

func TestNuOneUsesAllPointsAsSupport(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	data := gaussianCluster(rng, 50, 2, 0, 1)
	m, err := Train(data, Config{Nu: 1})
	if err != nil {
		t.Fatal(err)
	}
	// With ν=1 every α is forced to its upper bound: all points are
	// (bounded) support vectors — the Parzen-window limit.
	if len(m.Support) != len(data) {
		t.Fatalf("support vectors = %d, want %d", len(m.Support), len(data))
	}
}

func TestSmallTrainingSets(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5} {
		rng := rand.New(rand.NewSource(int64(10 + n)))
		data := gaussianCluster(rng, n, 2, 0, 1)
		m, err := Train(data, Config{Nu: 0.5})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if d := m.Decision([]float64{50, 50}); d >= 0 {
			t.Fatalf("n=%d: far point scored inside (%v)", n, d)
		}
	}
}

// Property: translating the training data and the query by the same
// offset leaves the RBF decision value unchanged.
func TestPropertyRBFTranslationInvariance(t *testing.T) {
	f := func(seed int64, shift float64) bool {
		shift = math.Mod(shift, 10)
		if math.IsNaN(shift) {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		data := gaussianCluster(rng, 60, 2, 0, 1)
		shifted := make([][]float64, len(data))
		for i, row := range data {
			shifted[i] = []float64{row[0] + shift, row[1] + shift}
		}
		// Pin gamma so both models use the same bandwidth.
		cfg := Config{Nu: 0.2, Gamma: 0.5}
		a, err := Train(data, cfg)
		if err != nil {
			return false
		}
		b, err := Train(shifted, cfg)
		if err != nil {
			return false
		}
		// SMO stops at tolerance 1e-3, so the two runs may settle at
		// slightly different dual points; the decision values must
		// still agree to that order.
		q := []float64{0.3, -0.2}
		qs := []float64{0.3 + shift, -0.2 + shift}
		return math.Abs(a.Decision(q)-b.Decision(qs)) < 5e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTrain200x64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	data := gaussianCluster(rng, 200, 64, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(data, DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecision(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	data := gaussianCluster(rng, 200, 64, 0, 1)
	m, err := Train(data, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	q := data[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Decision(q)
	}
}
