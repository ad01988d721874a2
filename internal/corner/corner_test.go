package corner

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"deepvalidation/internal/imgtrans"
	"deepvalidation/internal/nn"
	"deepvalidation/internal/opt"
	"deepvalidation/internal/tensor"
)

// toyProblem builds a linearly separable 3-class problem on 1×8×8
// images (bright band at a class-specific height).
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
	err  error
}

func toyNet(t *testing.T) *nn.Network {
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
		fixture.net = net
	})
	if fixture.err != nil {
		t.Fatal(fixture.err)
	}
	return fixture.net
}

func seeds(t *testing.T, n int) ([]*tensor.Tensor, []int) {
	t.Helper()
	net := toyNet(t)
	rng := rand.New(rand.NewSource(50))
	testX, testY := toyProblem(rng, 3*n)
	xs, ys, err := SelectSeeds(net, testX, testY, n, rng)
	if err != nil {
		t.Fatal(err)
	}
	return xs, ys
}

func TestFamiliesGrayscaleGetsComplement(t *testing.T) {
	withC := Families(true)
	without := Families(false)
	if len(withC) != len(without)+1 {
		t.Fatalf("grayscale families = %d, color = %d", len(withC), len(without))
	}
	names := map[string]bool{}
	for _, f := range withC {
		if names[f.Name] {
			t.Fatalf("duplicate family %q", f.Name)
		}
		names[f.Name] = true
		if len(f.Grid) == 0 {
			t.Fatalf("family %q has empty grid", f.Name)
		}
	}
	if !names["complement"] {
		t.Fatal("complement missing for greyscale")
	}
	for _, f := range without {
		if f.Name == "complement" {
			t.Fatal("complement offered for color images")
		}
	}
	// All six Table IV families plus complement.
	for _, want := range []string{"brightness", "contrast", "rotation", "shear", "scale", "translation"} {
		if !names[want] {
			t.Fatalf("family %q missing", want)
		}
	}
}

func TestGenerateIdentityHasZeroSuccess(t *testing.T) {
	net := toyNet(t)
	xs, ys := seeds(t, 30)
	g := Generate(net, xs, ys, "identity", imgtrans.Identity{})
	if g.SuccessRate != 0 {
		t.Fatalf("identity success rate = %v on correctly classified seeds", g.SuccessRate)
	}
	if len(g.Images) != 30 || len(g.Preds) != 30 || len(g.Confs) != 30 {
		t.Fatal("output arity mismatch")
	}
	if scc, fcc := checkSplit(t, g); scc != 0 || fcc != 30 {
		t.Fatalf("SCC/FCC split %d/%d, want 0/30", scc, fcc)
	}
}

// checkSplit checks that SCC returns exactly the misclassified images,
// in order and with their seed labels, and returns the SCC and FCC
// (still correctly classified) counts.
func checkSplit(t *testing.T, g Generated) (scc, fcc int) {
	t.Helper()
	if len(g.SeedLabels) != len(g.Images) {
		t.Fatalf("%d seed labels for %d images", len(g.SeedLabels), len(g.Images))
	}
	imgs, labels := g.SCC()
	if len(imgs) != len(labels) {
		t.Fatal("SCC labels mismatch")
	}
	for i, img := range g.Images {
		if g.Preds[i] == g.SeedLabels[i] {
			fcc++
			continue
		}
		if scc >= len(imgs) || imgs[scc] != img || labels[scc] != g.SeedLabels[i] {
			t.Fatalf("SCC entry %d is not misclassified image %d", scc, i)
		}
		scc++
	}
	if scc != len(imgs) {
		t.Fatalf("SCC returned %d images, %d are misclassified", len(imgs), scc)
	}
	return scc, fcc
}

func TestGenerateComplementBreaksToyModel(t *testing.T) {
	// The toy model has only ever seen bright-band-on-dark images;
	// complement inverts them entirely.
	net := toyNet(t)
	xs, ys := seeds(t, 30)
	g := Generate(net, xs, ys, "complement", imgtrans.Complement{})
	scc, fcc := checkSplit(t, g)
	if scc+fcc != 30 {
		t.Fatalf("SCC+FCC = %d, want 30", scc+fcc)
	}
	wantRate := float64(scc) / 30
	if g.SuccessRate != wantRate {
		t.Fatalf("success rate %v inconsistent with SCC count %d", g.SuccessRate, scc)
	}
}

func TestGenerateMeanWrongConfidence(t *testing.T) {
	net := toyNet(t)
	xs, ys := seeds(t, 20)
	g := Generate(net, xs, ys, "complement", imgtrans.Complement{})
	if g.SuccessRate > 0 {
		if g.MeanWrongConfidence <= 0 || g.MeanWrongConfidence > 1 {
			t.Fatalf("mean wrong confidence = %v", g.MeanWrongConfidence)
		}
	} else if g.MeanWrongConfidence != 0 {
		t.Fatal("confidence reported without successes")
	}
}

func TestSearchStopsAtTarget(t *testing.T) {
	net := toyNet(t)
	xs, ys := seeds(t, 30)
	fams := Families(true)
	results := Search(net, xs, ys, fams)
	if len(results) != len(fams) {
		t.Fatalf("results = %d, want %d", len(results), len(fams))
	}
	for _, r := range results {
		if !r.Kept {
			continue
		}
		if r.Best.SuccessRate < MinSuccess {
			t.Fatalf("%s kept with success %v < %v", r.Family, r.Best.SuccessRate, MinSuccess)
		}
		if r.Steps == 0 {
			t.Fatalf("%s evaluated no grid points", r.Family)
		}
	}
	// On this fragile toy model at least one geometric family must
	// become error-inducing.
	anyKept := false
	for _, r := range results {
		if r.Kept {
			anyKept = true
		}
	}
	if !anyKept {
		t.Fatal("no family produced corner cases on the toy model")
	}
}

func TestSearchEarlyStopDoesNotExhaustGrid(t *testing.T) {
	net := toyNet(t)
	xs, ys := seeds(t, 30)
	// Translation quickly destroys the band position signal, so the
	// search should stop well before the 18-step grid is exhausted.
	results := Search(net, xs, ys, []Family{
		{Name: "translation", Grid: Families(true)[5].Grid},
	})
	r := results[0]
	if !r.Kept {
		t.Skip("translation not error-inducing on this toy model")
	}
	if r.Best.SuccessRate >= TargetSuccess && r.Steps == len(Families(true)[5].Grid) {
		t.Fatal("search hit the target but still walked the whole grid")
	}
}

func TestCombineSearch(t *testing.T) {
	net := toyNet(t)
	xs, ys := seeds(t, 30)
	kept := Search(net, xs, ys, Families(true))
	nKept := 0
	for _, r := range kept {
		if r.Kept {
			nKept++
		}
	}
	if nKept < 2 {
		t.Skip("need at least two kept families to combine")
	}
	g, ok := CombineSearch(net, xs, ys, kept)
	if !ok {
		t.Fatal("no combination cleared the success threshold")
	}
	if g.SuccessRate < MinSuccess {
		t.Fatalf("combined success %v < %v", g.SuccessRate, MinSuccess)
	}
	if g.Family != "combined" {
		t.Fatalf("family = %q", g.Family)
	}
}

func TestCombineSearchEmptyKept(t *testing.T) {
	net := toyNet(t)
	xs, ys := seeds(t, 5)
	if _, ok := CombineSearch(net, xs, ys, nil); ok {
		t.Fatal("combination found with no kept families")
	}
}

func TestSelectSeedsAllCorrect(t *testing.T) {
	net := toyNet(t)
	rng := rand.New(rand.NewSource(60))
	testX, testY := toyProblem(rng, 100)
	xs, ys, err := SelectSeeds(net, testX, testY, 40, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(xs) != 40 {
		t.Fatalf("seeds = %d", len(xs))
	}
	for i, x := range xs {
		if pred, _ := net.Predict(x); pred != ys[i] {
			t.Fatalf("seed %d misclassified", i)
		}
	}
}

func TestSelectSeedsInsufficient(t *testing.T) {
	net := toyNet(t)
	rng := rand.New(rand.NewSource(61))
	testX, testY := toyProblem(rng, 10)
	if _, _, err := SelectSeeds(net, testX, testY, 50, rng); err == nil {
		t.Fatal("expected error for insufficient seeds")
	}
}

func TestSelectSeedsMismatchedLabels(t *testing.T) {
	net := toyNet(t)
	rng := rand.New(rand.NewSource(62))
	testX, testY := toyProblem(rng, 10)
	if _, _, err := SelectSeeds(net, testX, testY[:5], 2, rng); err == nil {
		t.Fatal("expected error for mismatched labels")
	}
}

func TestMeanDeformation(t *testing.T) {
	a := []*tensor.Tensor{tensor.New(1, 2, 2).Fill(0.5)}
	same := []*tensor.Tensor{tensor.New(1, 2, 2).Fill(0.5)}
	if d := meanDeformation(a, same); d != 0 {
		t.Fatalf("identical deformation = %v", d)
	}
	far := []*tensor.Tensor{tensor.New(1, 2, 2).Fill(1.5)}
	if d := meanDeformation(a, far); d != 1 {
		t.Fatalf("unit offset deformation = %v, want 1", d)
	}
	if d := meanDeformation(nil, nil); d != 0 {
		t.Fatalf("empty deformation = %v", d)
	}
}
