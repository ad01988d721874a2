package nn

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"deepvalidation/internal/tensor"
)

// Optimizer applies one update to a named parameter given its averaged
// gradient. Implementations live in internal/opt; the interface is
// defined here so nn does not depend on them.
type Optimizer interface {
	Step(name string, value, grad *tensor.Tensor)
}

// Trainer runs minibatch gradient descent over a network.
//
// Each batch runs in waves of Workers samples. Every worker owns one
// Context (and so one arena) for the whole of Train and computes one
// sample's gradient per wave on it; after each wave the caller adds the
// wave's gradients into the batch total in sample order. The total is
// therefore the same left fold over the batch at every worker count.
// Dropout draws one seed per batch from Rng and derives each sample's
// stream from that seed and the sample's position in the batch. A given
// seed thus produces the same model bits whatever Workers is and
// however the goroutines are scheduled.
type Trainer struct {
	Net       *Network
	Optimizer Optimizer
	BatchSize int
	Workers   int
	Rng       *rand.Rand

	// CalibrateWith, when non-empty, is streamed through the network
	// after every epoch to refresh BatchNorm running statistics.
	CalibrateWith []*tensor.Tensor

	// OnEpoch, when non-nil, observes training progress.
	OnEpoch func(epoch int, meanLoss, accuracy float64)
}

// EpochStats summarizes one training epoch.
type EpochStats struct {
	Epoch    int
	MeanLoss float64
	Accuracy float64
}

// NewTrainer returns a trainer with sensible defaults: batch size 128
// (the paper's setting), workers = GOMAXPROCS. The worker count sets
// only the parallelism; the trained bits do not depend on it.
func NewTrainer(net *Network, optimizer Optimizer, rng *rand.Rand) *Trainer {
	return &Trainer{
		Net:       net,
		Optimizer: optimizer,
		BatchSize: 128,
		Workers:   runtime.GOMAXPROCS(0),
		Rng:       rng,
	}
}

// Train runs the given number of epochs over (xs, ys) and returns
// per-epoch statistics. It returns an error on malformed input rather
// than panicking, since callers typically feed it external data.
func (t *Trainer) Train(xs []*tensor.Tensor, ys []int, epochs int) ([]EpochStats, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("nn: empty training set")
	}
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("nn: %d samples but %d labels", len(xs), len(ys))
	}
	for i, y := range ys {
		if y < 0 || y >= t.Net.Classes {
			return nil, fmt.Errorf("nn: label %d out of range [0,%d) at index %d", y, t.Net.Classes, i)
		}
	}
	if t.BatchSize <= 0 {
		return nil, fmt.Errorf("nn: batch size %d must be positive", t.BatchSize)
	}
	workers := t.Workers
	if workers <= 0 {
		workers = 1
	}
	if workers > t.BatchSize {
		workers = t.BatchSize
	}
	ctxs := make([]*Context, workers)
	for w := range ctxs {
		ctxs[w] = NewContext(true, rand.New(rand.NewSource(0)))
	}

	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	stats := make([]EpochStats, 0, epochs)
	for epoch := 0; epoch < epochs; epoch++ {
		t.Rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		lossSum := 0.0
		correct := 0
		for start := 0; start < len(idx); start += t.BatchSize {
			end := start + t.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			batch := idx[start:end]
			bl, bc := t.trainBatch(xs, ys, batch, ctxs)
			lossSum += bl
			correct += bc
		}
		st := EpochStats{
			Epoch:    epoch,
			MeanLoss: lossSum / float64(len(idx)),
			Accuracy: float64(correct) / float64(len(idx)),
		}
		stats = append(stats, st)
		if len(t.CalibrateWith) > 0 {
			t.Net.Calibrate(t.CalibrateWith)
		}
		if t.OnEpoch != nil {
			t.OnEpoch(epoch, st.MeanLoss, st.Accuracy)
		}
	}
	return stats, nil
}

// trainBatch processes one minibatch and applies a single optimizer
// step with gradients averaged over the batch. It returns the summed
// loss and the number of correct predictions. Sample k of each wave
// runs on ctxs[k]; the caller's goroutine runs the wave's last sample
// and then folds the wave into the total in sample order.
func (t *Trainer) trainBatch(xs []*tensor.Tensor, ys []int, batch []int, ctxs []*Context) (lossSum float64, correct int) {
	seed := t.Rng.Int63()
	params := t.Net.Params()
	total := make(map[*Param]*tensor.Tensor, len(params))
	losses := make([]float64, len(ctxs))
	hits := make([]bool, len(ctxs))
	sample := func(k, pos int) {
		ctx, i := ctxs[k], batch[pos]
		ctx.ResetCache()
		ctx.ResetGrads()
		ctx.rng.Seed(sampleSeed(seed, pos))
		probs := t.Net.ForwardCtx(xs[i], ctx)
		hits[k] = probs.ArgMax() == ys[i]
		l, g := CrossEntropy(probs, ys[i])
		losses[k] = l
		t.Net.Backward(g, ctx)
	}
	var wg sync.WaitGroup
	for start := 0; start < len(batch); start += len(ctxs) {
		n := min(len(ctxs), len(batch)-start)
		wg.Add(n - 1)
		for k := 0; k < n-1; k++ {
			go func(k int) {
				defer wg.Done()
				sample(k, start+k)
			}(k)
		}
		sample(n-1, start+n-1)
		wg.Wait()
		for k := 0; k < n; k++ {
			lossSum += losses[k]
			if hits[k] {
				correct++
			}
			ctxs[k].MergeGradsInto(total, params)
		}
	}

	inv := 1.0 / float64(len(batch))
	for _, p := range params {
		g, ok := total[p]
		if !ok {
			continue
		}
		g.ScaleInPlace(inv)
		t.Optimizer.Step(p.Name, p.Value, g)
	}
	return lossSum, correct
}

// sampleSeed derives the dropout seed of the sample at position pos of
// a batch from the batch's seed (a SplitMix64 step), so each sample's
// stream depends on where it sits in the batch, not on which worker
// runs it.
func sampleSeed(batchSeed int64, pos int) int64 {
	z := uint64(batchSeed) + uint64(pos+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
