package core

import (
	"bytes"
	"math"
	"math/rand"
	"sync"
	"testing"

	"deepvalidation/internal/dataset"
	"deepvalidation/internal/nn"
	"deepvalidation/internal/opt"
	"deepvalidation/internal/tensor"
)

// The digits fixture backs the determinism tests: a small CNN trained
// on the MNIST stand-in, shared read-only across tests.
var digitsFixture struct {
	once sync.Once
	net  *nn.Network
	xs   []*tensor.Tensor
	ys   []int
	err  error
}

func trainedDigitsModel(t *testing.T) (*nn.Network, []*tensor.Tensor, []int) {
	t.Helper()
	digitsFixture.once.Do(func() {
		ds := dataset.Digits(dataset.Config{TrainN: 400, TestN: 0, Seed: 1})
		rng := rand.New(rand.NewSource(71))
		net, err := nn.NewSevenLayerCNN("digits", ds.InC, ds.Size, ds.Classes,
			nn.ArchConfig{Width: 4, FCWidth: 24}, rng)
		if err != nil {
			digitsFixture.err = err
			return
		}
		tr := nn.NewTrainer(net, opt.NewAdadelta(1.0, 0.95), rand.New(rand.NewSource(72)))
		tr.BatchSize = 32
		tr.Workers = 4
		if _, err := tr.Train(ds.TrainX, ds.TrainY, 6); err != nil {
			digitsFixture.err = err
			return
		}
		digitsFixture.net, digitsFixture.xs, digitsFixture.ys = net, ds.TrainX, ds.TrainY
	})
	if digitsFixture.err != nil {
		t.Fatal(digitsFixture.err)
	}
	return digitsFixture.net, digitsFixture.xs, digitsFixture.ys
}

func encodeValidator(t *testing.T, v *Validator) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := v.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFitDeterministicAcrossWorkers is the pipeline's core guarantee:
// the parallel collection pass and the SVM fit pool merge in input
// order, so the fitted validator is bit-identical no matter how many
// workers ran it.
func TestFitDeterministicAcrossWorkers(t *testing.T) {
	net, xs, ys := trainedDigitsModel(t)
	fit := func(workers int) *Validator {
		t.Helper()
		v, err := Fit(net, xs, ys, Config{Nu: 0.1, MaxPerClass: 25, MaxFeatures: 64, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	seq := fit(1)
	want := encodeValidator(t, seq)
	for _, workers := range []int{2, 4, 8} {
		par := fit(workers)

		// Structural spot checks first, for a readable failure.
		if len(seq.LayerIdx) != len(par.LayerIdx) {
			t.Fatalf("workers=%d: layer counts differ: %d vs %d", workers, len(seq.LayerIdx), len(par.LayerIdx))
		}
		for p := range seq.LayerIdx {
			if seq.LayerIdx[p] != par.LayerIdx[p] {
				t.Fatalf("workers=%d: layer order differs at %d: %d vs %d", workers, p, seq.LayerIdx[p], par.LayerIdx[p])
			}
			if seq.Reducers[p] != par.Reducers[p] {
				t.Fatalf("workers=%d: reducer %d differs: %+v vs %+v", workers, p, seq.Reducers[p], par.Reducers[p])
			}
			for k := range seq.SVMs[p] {
				if len(seq.SVMs[p][k].Support) != len(par.SVMs[p][k].Support) {
					t.Fatalf("workers=%d: SVM(%d,%d) support counts differ: %d vs %d", workers,
						seq.LayerIdx[p], k, len(seq.SVMs[p][k].Support), len(par.SVMs[p][k].Support))
				}
			}
		}

		// The real bar: the gob encodings are byte-identical.
		if !bytes.Equal(want, encodeValidator(t, par)) {
			t.Fatalf("Workers:1 and Workers:%d validators encode differently", workers)
		}
	}
}

// TestCollectFeaturesMatchesReference pins the arena-backed collection
// pass against the allocating reference — nn.ForwardTapped plus Reduce
// per sample — bit for bit: the same kept indices in input order and
// the same feature values at every worker count.
func TestCollectFeaturesMatchesReference(t *testing.T) {
	net, xs, trueYs := trainedDigitsModel(t)
	// The fixture model classifies its whole training set correctly, so
	// relabel every seventh sample to exercise the drop path too.
	ys := append([]int(nil), trueYs...)
	for i := 0; i < len(ys); i += 7 {
		ys[i] = (ys[i] + 1) % net.Classes
	}
	layers := make([]int, net.NumLayers()-1)
	for i := range layers {
		layers[i] = i
	}
	tapShapes := net.TapShapes(xs[0].Shape)
	reducers := make([]FeatureReducer, len(layers))
	for p, l := range layers {
		reducers[p] = fitReducer(tapShapes[l], 64)
	}

	var wantKept []int
	wantFeats := make([][][]float64, len(layers))
	for i, x := range xs {
		probs, taps := net.ForwardTapped(x)
		if probs.ArgMax() != ys[i] {
			continue
		}
		wantKept = append(wantKept, i)
		for p, l := range layers {
			wantFeats[p] = append(wantFeats[p], reducers[p].Reduce(taps[l]))
		}
	}
	if len(wantKept) == 0 || len(wantKept) == len(xs) {
		t.Fatalf("fixture keeps %d of %d samples; the test needs both kept and dropped ones", len(wantKept), len(xs))
	}

	for _, workers := range []int{1, 2, 4} {
		kept, feats := collectFeatures(net, xs, ys, layers, reducers, workers, nil, nil)
		if len(kept) != len(wantKept) {
			t.Fatalf("workers=%d: kept %d samples, reference kept %d", workers, len(kept), len(wantKept))
		}
		for j := range kept {
			if kept[j] != wantKept[j] {
				t.Fatalf("workers=%d: kept[%d] = %d, reference %d", workers, j, kept[j], wantKept[j])
			}
		}
		for p := range layers {
			for j := range kept {
				got, want := feats[p][j], wantFeats[p][j]
				if len(got) != len(want) || cap(got) != len(got) {
					t.Fatalf("workers=%d: layer %d sample %d: len %d cap %d, reference len %d",
						workers, layers[p], kept[j], len(got), cap(got), len(want))
				}
				for d := range want {
					if math.Float64bits(got[d]) != math.Float64bits(want[d]) {
						t.Fatalf("workers=%d: layer %d sample %d feature %d = %v, reference %v",
							workers, layers[p], kept[j], d, got[d], want[d])
					}
				}
			}
		}
	}
}

// TestFitRepeatableAtFixedWorkers guards against per-run nondeterminism
// (map iteration, scheduler-order leaks) at a fixed worker count.
func TestFitRepeatableAtFixedWorkers(t *testing.T) {
	net, xs, ys := trainedDigitsModel(t)
	cfg := Config{Nu: 0.1, MaxPerClass: 25, MaxFeatures: 64, Workers: 8}
	a, err := Fit(net, xs, ys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fit(net, xs, ys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeValidator(t, a), encodeValidator(t, b)) {
		t.Fatal("two Workers:8 fits encode differently")
	}
}
