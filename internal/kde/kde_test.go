package kde

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"deepvalidation/internal/metrics"
	"deepvalidation/internal/nn"
	"deepvalidation/internal/opt"
	"deepvalidation/internal/tensor"
)

func toyProblem(rng *rand.Rand, n int) (xs []*tensor.Tensor, ys []int) {
	for i := 0; i < n; i++ {
		k := rng.Intn(3)
		img := tensor.New(1, 8, 8).FillUniform(rng, 0, 0.15)
		for y := 2 * k; y < 2*k+3; y++ {
			for x := 0; x < 8; x++ {
				img.Set(0.8+0.2*rng.Float64(), 0, y, x)
			}
		}
		xs = append(xs, img)
		ys = append(ys, k)
	}
	return xs, ys
}

var fixture struct {
	once sync.Once
	net  *nn.Network
	xs   []*tensor.Tensor
	ys   []int
	err  error
}

func toyNet(t *testing.T) (*nn.Network, []*tensor.Tensor, []int) {
	t.Helper()
	fixture.once.Do(func() {
		rng := rand.New(rand.NewSource(11))
		net, err := nn.NewSevenLayerCNN("toy", 1, 8, 3, nn.ArchConfig{Width: 4, FCWidth: 16}, rng)
		if err != nil {
			fixture.err = err
			return
		}
		xs, ys := toyProblem(rng, 150)
		tr := nn.NewTrainer(net, opt.NewAdadelta(1.0, 0.95), rand.New(rand.NewSource(12)))
		tr.BatchSize = 16
		stats, err := tr.Train(xs, ys, 20)
		if err != nil {
			fixture.err = err
			return
		}
		if acc := stats[len(stats)-1].Accuracy; acc < 0.95 {
			fixture.err = fmt.Errorf("toy accuracy %v too low", acc)
			return
		}
		fixture.net, fixture.xs, fixture.ys = net, xs, ys
	})
	if fixture.err != nil {
		t.Fatal(fixture.err)
	}
	return fixture.net, fixture.xs, fixture.ys
}

func TestFitDefaultsToPenultimateLayer(t *testing.T) {
	net, xs, ys := toyNet(t)
	d, err := Fit(net, xs, ys, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if d.Layer != net.NumLayers()-2 {
		t.Fatalf("layer = %d, want %d", d.Layer, net.NumLayers()-2)
	}
	if d.Bandwidth <= 0 {
		t.Fatalf("bandwidth = %v", d.Bandwidth)
	}
	for k, pts := range d.Points {
		if len(pts) == 0 {
			t.Fatalf("class %d empty", k)
		}
	}
}

func TestScoreRanksNoiseAboveClean(t *testing.T) {
	net, xs, ys := toyNet(t)
	d, err := Fit(net, xs, ys, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	cleanX, _ := toyProblem(rng, 40)
	clean := d.ScoreBatch(net, cleanX)
	var noise []float64
	for i := 0; i < 40; i++ {
		noise = append(noise, d.Score(net, tensor.New(1, 8, 8).FillUniform(rng, 0, 1)))
	}
	// KDE should notice at least some distribution shift on pure noise;
	// its weakness in the paper is on *natural* corner cases, not on
	// white noise.
	if auc := metrics.AUC(noise, clean); auc < 0.6 {
		t.Fatalf("KDE AUC on noise = %v, want ≥ 0.6", auc)
	}
}

func TestFitValidation(t *testing.T) {
	net, xs, ys := toyNet(t)
	if _, err := Fit(net, nil, nil, DefaultConfig()); err == nil {
		t.Error("empty training set accepted")
	}
	if _, err := Fit(net, xs, ys[:3], DefaultConfig()); err == nil {
		t.Error("mismatched labels accepted")
	}
	if _, err := Fit(net, xs, ys, Config{Layer: 99}); err == nil {
		t.Error("layer out of range accepted")
	}
}

func TestExplicitBandwidthRespected(t *testing.T) {
	net, xs, ys := toyNet(t)
	d, err := Fit(net, xs, ys, Config{Layer: -1, Bandwidth: 1.25, MaxPerClass: 50})
	if err != nil {
		t.Fatal(err)
	}
	if d.Bandwidth != 1.25 {
		t.Fatalf("bandwidth = %v, want 1.25", d.Bandwidth)
	}
	for _, pts := range d.Points {
		if len(pts) > 50 {
			t.Fatalf("class exceeded MaxPerClass: %d", len(pts))
		}
	}
}

func TestScoreDeterministic(t *testing.T) {
	net, xs, ys := toyNet(t)
	d, err := Fit(net, xs, ys, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := d.Score(net, xs[0])
	b := d.Score(net, xs[0])
	if a != b {
		t.Fatalf("scores differ: %v vs %v", a, b)
	}
}

func TestCloseToTrainingPointScoresLow(t *testing.T) {
	net, xs, ys := toyNet(t)
	d, err := Fit(net, xs, ys, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	// A training sample itself must score lower (less anomalous) than
	// uniform noise, on average.
	trainScore := d.Score(net, xs[0])
	noiseScore := d.Score(net, tensor.New(1, 8, 8).FillUniform(rng, 0, 1))
	if trainScore >= noiseScore {
		t.Fatalf("training sample scored %v ≥ noise %v", trainScore, noiseScore)
	}
}

// referenceFit is Fit on the allocating nn.ForwardTapped path — the
// reference the arena-backed Fit must reproduce bit for bit.
func referenceFit(net *nn.Network, xs []*tensor.Tensor, ys []int, cfg Config) *Detector {
	layer := cfg.Layer
	if layer < 0 {
		layer = net.NumLayers() - 2
	}
	points := make([][][]float64, net.Classes)
	var dim int
	for i, x := range xs {
		probs, taps := net.ForwardTapped(x)
		if probs.ArgMax() != ys[i] {
			continue
		}
		f := taps[layer]
		if dim == 0 {
			dim = f.Len()
		}
		if len(points[ys[i]]) < cfg.MaxPerClass {
			points[ys[i]] = append(points[ys[i]], append([]float64(nil), f.Data...))
		}
	}
	return &Detector{Bandwidth: scottBandwidth(points, dim), Layer: layer, Dim: dim, Points: points}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestArenaPathMatchesForwardTapped pins the scratch-arena Fit, Score
// and ScoreBatch against the allocating nn.ForwardTapped reference: the
// fitted detector and every score must be bit-identical.
func TestArenaPathMatchesForwardTapped(t *testing.T) {
	net, xs, ys := toyNet(t)
	cfg := Config{Layer: -1, MaxPerClass: 30}
	got, err := Fit(net, xs, ys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceFit(net, xs, ys, cfg)
	if math.Float64bits(got.Bandwidth) != math.Float64bits(want.Bandwidth) || got.Layer != want.Layer || got.Dim != want.Dim {
		t.Fatalf("detector header (%v, %d, %d), reference (%v, %d, %d)",
			got.Bandwidth, got.Layer, got.Dim, want.Bandwidth, want.Layer, want.Dim)
	}
	for k := range want.Points {
		if len(got.Points[k]) != len(want.Points[k]) {
			t.Fatalf("class %d: %d points, reference %d", k, len(got.Points[k]), len(want.Points[k]))
		}
		for i := range want.Points[k] {
			if !sameBits(got.Points[k][i], want.Points[k][i]) {
				t.Fatalf("class %d point %d differs from the reference", k, i)
			}
		}
	}

	rng := rand.New(rand.NewSource(41))
	batch := append([]*tensor.Tensor(nil), xs[:20]...)
	for i := 0; i < 10; i++ {
		batch = append(batch, tensor.New(1, 8, 8).FillUniform(rng, 0, 1))
	}
	ref := make([]float64, len(batch))
	for i, x := range batch {
		probs, taps := net.ForwardTapped(x)
		ref[i] = -want.logDensity(taps[want.Layer].Data, probs.ArgMax())
	}
	if scores := got.ScoreBatch(net, batch); !sameBits(scores, ref) {
		t.Fatalf("ScoreBatch = %v, reference %v", scores, ref)
	}
	for i, x := range batch {
		if s := got.Score(net, x); math.Float64bits(s) != math.Float64bits(ref[i]) {
			t.Fatalf("Score(sample %d) = %v, reference %v", i, s, ref[i])
		}
	}
}
