package nn

import (
	"math/rand"
	"runtime"
	"testing"

	"deepvalidation/internal/opt"
)

// TestTrainAllocationBudget guards the training path's memory
// discipline: each worker's Context keeps one arena for the whole of
// Train, so forward activations and the backward pass's im2col columns
// are reused from sample to sample. It trains the QuickScale-shaped
// seven-layer CNN (28×28 digits, width 6, FC 32) one batch of 128 at
// Workers=1 and bounds a warm epoch's heap allocation per sample at
// 1.5 MiB: about 1.25 MiB is the backward pass's gradient tensors, and
// an allocating forward pass (about 0.9 MiB per sample) would exceed it.
func TestTrainAllocationBudget(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race-detector instrumentation allocates; budgets apply to plain builds")
	}
	const (
		samples = 128
		budget  = 1.5 * 1024 * 1024 // bytes per sample
	)
	rng := rand.New(rand.NewSource(41))
	net, err := NewSevenLayerCNN("quick", 1, 28, 10, ArchConfig{Width: 6, FCWidth: 32}, rng)
	if err != nil {
		t.Fatal(err)
	}
	xs, ys := pinProblem(rng, samples, 1, 28, 10)
	tr := NewTrainer(net, opt.NewAdadelta(1.0, 0.95), rand.New(rand.NewSource(42)))
	tr.BatchSize = samples
	tr.Workers = 1
	if _, err := tr.Train(xs, ys, 1); err != nil { // warm the optimizer state
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := tr.Train(xs, ys, 1); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perSample := float64(after.TotalAlloc-before.TotalAlloc) / samples
	allocs := float64(after.Mallocs-before.Mallocs) / samples
	t.Logf("warm training epoch: %.0f KiB and %.0f allocations per sample", perSample/1024, allocs)
	if perSample > budget {
		t.Errorf("warm training allocates %.0f KiB per sample, budget %.0f KiB", perSample/1024, budget/1024)
	}
}
