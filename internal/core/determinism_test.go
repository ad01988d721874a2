package core

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"unsafe"

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

// TestCollectFeaturesMatchesReference pins the arena-backed, block-
// backed collection pass against the allocating reference —
// nn.ForwardTapped plus Reduce per sample — bit for bit: the same kept
// indices in input order and the same feature values at every worker
// count. The sample counts straddle the run boundaries, and one input
// has a whole run of misclassified samples, which must get no block.
// Every row must be a full-capacity view that overlaps no other.
func TestCollectFeaturesMatchesReference(t *testing.T) {
	net, xs, _ := trainedDigitsModel(t)
	layers := make([]int, net.NumLayers()-1)
	for i := range layers {
		layers[i] = i
	}
	tapShapes := net.TapShapes(xs[0].Shape)
	reducers := make([]FeatureReducer, len(layers))
	for p, l := range layers {
		reducers[p] = fitReducer(tapShapes[l], 64)
	}
	// The reference features and prediction of every sample; a case
	// keeps sample i exactly when its label is preds[i].
	preds := make([]int, len(xs))
	ref := make([][][]float64, len(xs))
	for i, x := range xs {
		probs, taps := net.ForwardTapped(x)
		preds[i] = probs.ArgMax()
		for p, l := range layers {
			ref[i] = append(ref[i], reducers[p].Reduce(taps[l]))
		}
	}

	// Each case relabels some samples away from the prediction to
	// exercise the drop path.
	every7th := func(i int) bool { return i%7 == 3 }
	cases := []struct {
		name string
		n    int
		drop func(i int) bool
	}{
		{"all", len(xs), every7th},
		{"one", 1, every7th},
		{"block-1", featureBlock - 1, every7th},
		{"block", featureBlock, every7th},
		{"block+1", featureBlock + 1, every7th},
		{"dropped-run", 3 * featureBlock, func(i int) bool { return i/featureBlock == 1 || every7th(i) }},
	}
	for _, c := range cases {
		ys := make([]int, c.n)
		var wantKept []int
		for i := range ys {
			ys[i] = preds[i]
			if c.drop(i) {
				ys[i] = (preds[i] + 1) % net.Classes
			} else {
				wantKept = append(wantKept, i)
			}
		}
		if len(wantKept) == 0 || len(wantKept) == c.n && c.n > 1 {
			t.Fatalf("%s: case keeps %d of %d samples; it needs kept and, past one sample, dropped ones",
				c.name, len(wantKept), c.n)
		}
		for _, workers := range []int{1, 2, 4} {
			feats := collectFeatures(net, xs[:c.n], ys, layers, reducers, workers, nil, nil)
			kept := feats.kept
			if len(kept) != len(wantKept) {
				t.Fatalf("%s workers=%d: kept %d samples, reference kept %d", c.name, workers, len(kept), len(wantKept))
			}
			for b, blk := range feats.blocks {
				lo, hi := b*featureBlock, min((b+1)*featureBlock, c.n)
				i := sort.SearchInts(wantKept, lo)
				if keeps := i < len(wantKept) && wantKept[i] < hi; keeps != (blk != nil) {
					t.Fatalf("%s workers=%d: run %d keeps a sample: %v, has a block: %v",
						c.name, workers, b, keeps, blk != nil)
				}
			}
			type span struct{ lo, hi uintptr }
			var spans []span
			for j := range kept {
				if kept[j] != wantKept[j] {
					t.Fatalf("%s workers=%d: kept[%d] = %d, reference %d", c.name, workers, j, kept[j], wantKept[j])
				}
				for p := range layers {
					got, want := feats.row(p, j), ref[kept[j]][p]
					if len(got) != len(want) || cap(got) != len(got) {
						t.Fatalf("%s workers=%d: layer %d sample %d: len %d cap %d, reference len %d",
							c.name, workers, layers[p], kept[j], len(got), cap(got), len(want))
					}
					for d := range want {
						if math.Float64bits(got[d]) != math.Float64bits(want[d]) {
							t.Fatalf("%s workers=%d: layer %d sample %d feature %d = %v, reference %v",
								c.name, workers, layers[p], kept[j], d, got[d], want[d])
						}
					}
					lo := uintptr(unsafe.Pointer(unsafe.SliceData(got)))
					spans = append(spans, span{lo, lo + uintptr(len(got))*8})
				}
			}
			sort.Slice(spans, func(a, b int) bool { return spans[a].lo < spans[b].lo })
			for i := 1; i < len(spans); i++ {
				if spans[i].lo < spans[i-1].hi {
					t.Fatalf("%s workers=%d: two kept rows overlap in memory", c.name, workers)
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
