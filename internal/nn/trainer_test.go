package nn

import (
	"math"
	"math/rand"
	"testing"

	"deepvalidation/internal/tensor"
)

// stepOptimizer is a plain SGD step defined locally so the nn tests do
// not depend on internal/opt.
type stepOptimizer struct{ lr float64 }

func (o stepOptimizer) Step(_ string, value, grad *tensor.Tensor) {
	value.AxpyInPlace(-o.lr, grad)
}

// toyProblem builds a linearly separable 3-class problem on 1×6×6
// images: class k has a bright horizontal band in rows 2k..2k+1.
func toyProblem(rng *rand.Rand, n int) (xs []*tensor.Tensor, ys []int) {
	for i := 0; i < n; i++ {
		k := rng.Intn(3)
		img := tensor.New(1, 6, 6).FillUniform(rng, 0, 0.2)
		for y := 2 * k; y < 2*k+2; y++ {
			for x := 0; x < 6; x++ {
				img.Set(0.8+0.2*rng.Float64(), 0, y, x)
			}
		}
		xs = append(xs, img)
		ys = append(ys, k)
	}
	return xs, ys
}

func toyTrainer(t *testing.T, seed int64, workers int) (*Trainer, []*tensor.Tensor, []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net, err := NewSevenLayerCNN("toy", 1, 6, 3, ArchConfig{Width: 2, FCWidth: 8}, rng)
	if err != nil {
		t.Fatal(err)
	}
	xs, ys := toyProblem(rng, 120)
	tr := NewTrainer(net, stepOptimizer{lr: 0.2}, rand.New(rand.NewSource(seed+1)))
	tr.BatchSize = 16
	tr.Workers = workers
	return tr, xs, ys
}

func TestTrainerLearnsToyProblem(t *testing.T) {
	tr, xs, ys := toyTrainer(t, 100, 4)
	stats, err := tr.Train(xs, ys, 15)
	if err != nil {
		t.Fatal(err)
	}
	final := stats[len(stats)-1]
	if final.Accuracy < 0.95 {
		t.Fatalf("training accuracy after %d epochs = %v, want ≥ 0.95", len(stats), final.Accuracy)
	}
	if final.MeanLoss >= stats[0].MeanLoss {
		t.Fatalf("loss did not decrease: %v -> %v", stats[0].MeanLoss, final.MeanLoss)
	}
	// Generalization to fresh draws from the same distribution.
	testX, testY := toyProblem(rand.New(rand.NewSource(999)), 60)
	acc, _ := tr.Net.Accuracy(testX, testY)
	if acc < 0.9 {
		t.Fatalf("test accuracy = %v, want ≥ 0.9", acc)
	}
}

func TestTrainerDeterministicGivenSeed(t *testing.T) {
	run := func() []float64 {
		tr, xs, ys := toyTrainer(t, 200, 3)
		if _, err := tr.Train(xs, ys, 2); err != nil {
			t.Fatal(err)
		}
		var out []float64
		for _, p := range tr.Net.Params() {
			out = append(out, p.Value.Data...)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("parameter %d differs across identical runs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestTrainerBatchStepWorkerCountIndependent(t *testing.T) {
	// One full-set batch step must produce the same parameter bits
	// whatever the worker count: per-sample gradients are folded into
	// the batch total in sample order, and each sample's dropout stream
	// comes from the batch seed and the sample's position, not from the
	// worker that runs it.
	paramsAfterOneBatch := func(dropout float64, workers int) []float64 {
		tr, xs, ys := toyTrainer(t, 300, workers)
		if dropout > 0 {
			net, err := NewSevenLayerCNN("toy", 1, 6, 3, ArchConfig{Width: 2, FCWidth: 8, Dropout: dropout}, rand.New(rand.NewSource(301)))
			if err != nil {
				t.Fatal(err)
			}
			tr.Net = net
		}
		tr.BatchSize = len(xs) // a single batch per epoch
		if _, err := tr.Train(xs, ys, 1); err != nil {
			t.Fatal(err)
		}
		var out []float64
		for _, p := range tr.Net.Params() {
			out = append(out, p.Value.Data...)
		}
		return out
	}
	for _, dropout := range []float64{0, 0.25} {
		want := paramsAfterOneBatch(dropout, 1)
		for _, workers := range []int{2, 3, 4} {
			got := paramsAfterOneBatch(dropout, workers)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("dropout %v: param %d differs at %d workers: %v vs %v", dropout, i, workers, got[i], want[i])
				}
			}
		}
	}
}

func TestTrainerInputValidation(t *testing.T) {
	tr, xs, ys := toyTrainer(t, 400, 1)
	if _, err := tr.Train(nil, nil, 1); err == nil {
		t.Error("empty training set accepted")
	}
	if _, err := tr.Train(xs, ys[:len(ys)-1], 1); err == nil {
		t.Error("mismatched labels accepted")
	}
	bad := append([]int(nil), ys...)
	bad[0] = 7
	if _, err := tr.Train(xs, bad, 1); err == nil {
		t.Error("out-of-range label accepted")
	}
	tr.BatchSize = 0
	if _, err := tr.Train(xs, ys, 1); err == nil {
		t.Error("zero batch size accepted")
	}
}

func TestTrainerOnEpochCallback(t *testing.T) {
	tr, xs, ys := toyTrainer(t, 500, 2)
	var calls int
	tr.OnEpoch = func(epoch int, loss, acc float64) {
		if epoch != calls {
			t.Errorf("epoch %d reported out of order", epoch)
		}
		calls++
	}
	if _, err := tr.Train(xs, ys, 3); err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("OnEpoch called %d times, want 3", calls)
	}
}

func TestTrainerBatchLargerThanSet(t *testing.T) {
	tr, xs, ys := toyTrainer(t, 600, 4)
	tr.BatchSize = 1000 // larger than the 120-sample set
	if _, err := tr.Train(xs, ys, 1); err != nil {
		t.Fatal(err)
	}
}

func TestTrainerWithDropout(t *testing.T) {
	rng := rand.New(rand.NewSource(700))
	net, err := NewSevenLayerCNN("toy", 1, 6, 3, ArchConfig{Width: 2, FCWidth: 8, Dropout: 0.25}, rng)
	if err != nil {
		t.Fatal(err)
	}
	xs, ys := toyProblem(rng, 120)
	tr := NewTrainer(net, stepOptimizer{lr: 0.2}, rand.New(rand.NewSource(701)))
	tr.BatchSize = 16
	tr.Workers = 4
	stats, err := tr.Train(xs, ys, 20)
	if err != nil {
		t.Fatal(err)
	}
	if stats[len(stats)-1].Accuracy < 0.8 {
		t.Fatalf("dropout training accuracy = %v, want ≥ 0.8", stats[len(stats)-1].Accuracy)
	}
}
