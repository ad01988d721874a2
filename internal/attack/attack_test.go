package attack

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

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
	once  sync.Once
	net   *nn.Network
	seeds []*tensor.Tensor
	ys    []int
	err   error
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
		// Correctly classified seeds only.
		for i, x := range xs {
			if len(fixture.seeds) == 12 {
				break
			}
			if pred, _ := net.Predict(x); pred == ys[i] {
				fixture.seeds = append(fixture.seeds, x)
				fixture.ys = append(fixture.ys, ys[i])
			}
		}
		fixture.net = net
	})
	if fixture.err != nil {
		t.Fatal(fixture.err)
	}
	return fixture.net, fixture.seeds, fixture.ys
}

func inBox(t *testing.T, img *tensor.Tensor) {
	t.Helper()
	if img.Min() < -1e-12 || img.Max() > 1+1e-12 {
		t.Fatalf("adversarial image escaped [0,1]: [%v, %v]", img.Min(), img.Max())
	}
}

func TestFGSMZeroEpsilonIsNoop(t *testing.T) {
	net, seeds, ys := toyNet(t)
	r := FGSM(net, seeds[0], ys[0], 0)
	if !r.Adversarial.AllClose(seeds[0], 0) {
		t.Fatal("eps=0 changed the image")
	}
	if r.Success {
		t.Fatal("eps=0 cannot succeed on a correctly classified seed")
	}
}

func TestFGSMBoundedPerturbation(t *testing.T) {
	net, seeds, ys := toyNet(t)
	eps := 0.2
	for i, x := range seeds {
		r := FGSM(net, x, ys[i], eps)
		inBox(t, r.Adversarial)
		if d := r.Adversarial.Sub(x).LInfNorm(); d > eps+1e-12 {
			t.Fatalf("FGSM L∞ = %v exceeds eps %v", d, eps)
		}
	}
}

func TestFGSMLargeEpsilonSucceedsSometimes(t *testing.T) {
	net, seeds, ys := toyNet(t)
	wins := 0
	for i, x := range seeds {
		if FGSM(net, x, ys[i], 0.5).Success {
			wins++
		}
	}
	if wins == 0 {
		t.Fatal("FGSM at eps=0.5 never succeeded on the fragile toy model")
	}
}

func TestBIMBoundedAndStrongerThanFGSM(t *testing.T) {
	net, seeds, ys := toyNet(t)
	eps := 0.25
	fgsmWins, bimWins := 0, 0
	for i, x := range seeds {
		rf := FGSM(net, x, ys[i], eps)
		rb := BIM(net, x, ys[i], eps, 0.05, 10)
		inBox(t, rb.Adversarial)
		if d := rb.Adversarial.Sub(x).LInfNorm(); d > eps+1e-12 {
			t.Fatalf("BIM L∞ = %v exceeds eps %v", d, eps)
		}
		if rf.Success {
			fgsmWins++
		}
		if rb.Success {
			bimWins++
		}
	}
	if bimWins < fgsmWins {
		t.Fatalf("BIM (%d wins) weaker than FGSM (%d wins) at equal eps", bimWins, fgsmWins)
	}
}

func TestNextClass(t *testing.T) {
	if NextClass(9, 10) != 0 || NextClass(3, 10) != 4 {
		t.Fatal("NextClass wrong")
	}
}

func TestLeastLikelyIsNotPrediction(t *testing.T) {
	net, seeds, _ := toyNet(t)
	for _, x := range seeds {
		pred, _ := net.Predict(x)
		ll := LeastLikely(net, x)
		if ll == pred {
			t.Fatal("least-likely class equals the prediction")
		}
	}
}

func TestJSMARespectsPixelBudget(t *testing.T) {
	net, seeds, ys := toyNet(t)
	maxFrac := 0.15
	for i, x := range seeds[:6] {
		target := NextClass(ys[i], 3)
		r := JSMA(net, x, ys[i], target, 1.0, maxFrac)
		inBox(t, r.Adversarial)
		changed := r.Adversarial.Sub(x).L0Norm()
		budget := int(maxFrac * float64(x.Len()))
		if changed > budget {
			t.Fatalf("JSMA changed %d pixels, budget %d", changed, budget)
		}
	}
}

func TestJSMASucceedsOnFragileModel(t *testing.T) {
	net, seeds, ys := toyNet(t)
	wins := 0
	for i, x := range seeds {
		if JSMA(net, x, ys[i], NextClass(ys[i], 3), 1.0, 0.3).Success {
			wins++
		}
	}
	if wins == 0 {
		t.Fatal("JSMA never succeeded")
	}
}

func TestCWL2FindsSmallPerturbations(t *testing.T) {
	net, seeds, ys := toyNet(t)
	cfg := CWConfig{BinarySearchSteps: 3, InitialC: 0.1, Iterations: 60, LR: 0.1}
	wins := 0
	var dists []float64
	for i, x := range seeds[:6] {
		r := CWL2(net, x, ys[i], NextClass(ys[i], 3), cfg)
		inBox(t, r.Adversarial)
		if r.Success {
			wins++
			dists = append(dists, r.Adversarial.Sub(x).L2Norm())
		}
	}
	if wins < 3 {
		t.Fatalf("CW2 won only %d/6 on the fragile toy model", wins)
	}
	for _, d := range dists {
		// The whole image has L2 ≈ sqrt(64)·0.5 ≈ 4; CW should perturb
		// far less than replacing the image.
		if d > 4 {
			t.Fatalf("CW2 perturbation L2 = %v implausibly large", d)
		}
	}
}

func TestCWLInfProducesBoundedPerturbations(t *testing.T) {
	net, seeds, ys := toyNet(t)
	cfg := CWConfig{BinarySearchSteps: 2, InitialC: 0.1, Iterations: 50, LR: 0.05}
	wins := 0
	for i, x := range seeds[:6] {
		r := CWLInf(net, x, ys[i], NextClass(ys[i], 3), cfg)
		inBox(t, r.Adversarial)
		if r.Success {
			wins++
			if d := r.Adversarial.Sub(x).LInfNorm(); d > 0.9 {
				t.Fatalf("CW∞ perturbation %v is as large as the pixel range", d)
			}
		}
	}
	if wins == 0 {
		t.Fatal("CW∞ never succeeded")
	}
}

func TestCWL0SparsePerturbations(t *testing.T) {
	net, seeds, ys := toyNet(t)
	cfg := CWConfig{BinarySearchSteps: 2, InitialC: 0.1, Iterations: 50, LR: 0.1}
	wins, sparseWins := 0, 0
	for i, x := range seeds[:4] {
		r := CWL0(net, x, ys[i], NextClass(ys[i], 3), cfg)
		inBox(t, r.Adversarial)
		if r.Success {
			wins++
			changed := 0
			for j := range x.Data {
				if absf(r.Adversarial.Data[j]-x.Data[j]) > 1e-3 {
					changed++
				}
			}
			if changed < x.Len() {
				sparseWins++
			}
		}
	}
	if wins == 0 {
		t.Fatal("CW0 never succeeded")
	}
	// Freezing cannot always shrink the support, but it must do so on
	// at least one seed or it is not doing anything.
	if sparseWins == 0 {
		t.Fatal("CW0 never produced a sparse perturbation; freezing had no effect")
	}
}

func TestCWObjectiveGradSignConvention(t *testing.T) {
	net, seeds, ys := toyNet(t)
	x := seeds[0]
	target := NextClass(ys[0], 3)
	margin, g := cwObjectiveGrad(net, x, target, 0)
	// Seed is classified as ys[0] ≠ target, so the margin must be
	// positive (attack not yet successful) with a usable gradient.
	if margin <= 0 {
		t.Fatalf("margin = %v on an unattacked seed", margin)
	}
	if g.L2Norm() == 0 {
		t.Fatal("zero gradient on active margin")
	}
	// Targeting the predicted class, the raw margin is negative; with
	// κ below |margin| the hinge is inactive: the gradient vanishes
	// but the raw margin is still reported for success detection.
	m0, _ := cwObjectiveGrad(net, x, ys[0], 0)
	if m0 >= 0 {
		t.Fatalf("margin targeting the prediction = %v, want < 0", m0)
	}
	m2, g2 := cwObjectiveGrad(net, x, ys[0], -m0/2)
	if m2 != m0 || g2.L2Norm() != 0 {
		t.Fatalf("hinged objective: margin %v (want %v) grad %v", m2, m0, g2.L2Norm())
	}
}

func TestPercentileMag(t *testing.T) {
	got := percentileMag([]float64{5, 1, 3, 2, 4}, 0.2)
	if got != 2 {
		t.Fatalf("20th percentile = %v, want 2", got)
	}
	if got := percentileMag([]float64{7}, 0.99); got != 7 {
		t.Fatalf("single-element percentile = %v", got)
	}
}

func TestSign(t *testing.T) {
	if sign(2) != 1 || sign(-0.5) != -1 || sign(0) != 0 {
		t.Fatal("sign wrong")
	}
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
