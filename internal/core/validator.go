// Package core implements Deep Validation (paper Section III-B): it
// fits per-layer, per-class one-class SVMs on the hidden representations
// of correctly classified training images (Algorithm 1), and at
// inference time scores a sample by its joint discrepancy — the sum over
// validated layers of the negated signed distance to the reference
// SVM of the *predicted* class (Algorithm 2, Eqs. 2–3). The threshold ε
// that turns a joint discrepancy into a verdict (d ≥ ε flags an
// error-inducing corner case) and the verdict statistics live one layer
// up, in the root package's Detector, whose one check body runs
// ScoreEach.
package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"deepvalidation/internal/artifact"
	"deepvalidation/internal/freelist"
	"deepvalidation/internal/metrics"
	"deepvalidation/internal/nn"
	"deepvalidation/internal/svm"
	"deepvalidation/internal/telemetry"
	"deepvalidation/internal/tensor"
)

// Config controls validator fitting.
type Config struct {
	// Nu is the one-class SVM ν for every layer (default 0.1).
	Nu float64
	// MaxPerClass caps the training samples per (layer, class) SVM;
	// classes with more correctly classified images are subsampled with
	// a deterministic stride (default 200).
	MaxPerClass int
	// MaxFeatures caps the SVM input dimensionality per layer via
	// spatial average pooling (default 256).
	MaxFeatures int
	// Layers lists the tap indices to validate. Nil validates every
	// hidden layer (taps 0..L-2), the paper's default; Section IV-C
	// restricts DenseNet to the rear layers instead.
	Layers []int
	// Workers bounds Fit's concurrency (default GOMAXPROCS): the
	// tapped forward passes of the collection pass, the (layer, class)
	// SVM fits and the per-layer drift snapshot each run on at most
	// this many goroutines. The fitted validator does not depend on it.
	Workers int
	// SkipDriftSnapshot disables the fit-time drift reference (the
	// per-layer discrepancy quantiles persisted into the Validator for
	// the serving drift watch). The zero value records it.
	SkipDriftSnapshot bool
	// Telemetry, when non-nil, receives per-stage fit timings (tap
	// collection, per-sample forward/reduce, per-(layer, class) SVM
	// fits) and sample counters. Nil adds no overhead.
	Telemetry *telemetry.Registry
}

// DefaultConfig returns the configuration used across the experiments.
func DefaultConfig() Config {
	return Config{Nu: 0.1, MaxPerClass: 200, MaxFeatures: 256}
}

// RearLayers returns a Config.Layers value selecting the last k hidden
// layers of a network, the paper's DenseNet setting ("Deep Validation
// only works on the last six layers of DenseNet").
func RearLayers(net *nn.Network, k int) []int {
	hidden := net.NumLayers() - 1
	if k > hidden {
		k = hidden
	}
	out := make([]int, 0, k)
	for i := hidden - k; i < hidden; i++ {
		out = append(out, i)
	}
	return out
}

// Validator is a fitted Deep Validation detector. Fields are exported
// for gob serialization; treat them as read-only after Fit.
type Validator struct {
	ModelName string
	Classes   int
	// LayerIdx lists the validated tap indices, ascending.
	LayerIdx []int
	// Reducers[i] maps activations of layer LayerIdx[i] to SVM features.
	Reducers []FeatureReducer
	// SVMs[i][k] is SVM(LayerIdx[i], class k) of Algorithm 1.
	SVMs [][]*svm.OneClass
	// Nu records the fitting parameter for reporting.
	Nu float64
	// NormMean/NormStd hold per-layer clean-data discrepancy statistics
	// when FitNormalization has run; see NormalizedJoint.
	NormMean []float64
	NormStd  []float64
	// DriftProbs/DriftQuantiles are the fit-time drift reference:
	// DriftQuantiles[p][j] is the DriftProbs[j] quantile of the
	// discrepancy d over the layer LayerIdx[p] SVMs' own training
	// points. The serving drift watch compares live traffic against
	// these. Both are nil on validators fitted before this field
	// existed (legacy artifacts) or with SkipDriftSnapshot — drift
	// watching then degrades to disabled.
	DriftProbs     []float64
	DriftQuantiles [][]float64

	// tel holds the attached telemetry handles (nil when detached).
	// Unexported, so gob round-trips skip it; re-attach after Load.
	tel atomic.Pointer[valTelemetry]

	// scratch is the free list of scoring states, each with its own
	// forward arena, reduced-feature buffers, SVM batch row, input
	// header and per-layer row. A ScoreTimed call takes one state for
	// its whole duration, and a batch takes one per worker, on the
	// worker's own goroutine, for the whole batch, so states are never
	// shared between concurrent scores — the ownership rule that keeps
	// the allocation diet race-free. The list keeps at most 2 ×
	// GOMAXPROCS states and a GC never empties it, so warm scoring
	// builds none. Unexported: gob skips it, and Clone starts with an
	// empty list.
	scratch freelist.List[*scoreScratch]
}

// scoreScratch is one worker's reusable scoring arena.
type scoreScratch struct {
	fwd   *nn.Scratch
	feat  [][]float64  // per layer-position reduced features
	xrow  [1][]float64 // single-row batch for DecisionBatchInto
	drow  [1]float64
	hdr   tensor.Tensor // handed to Batch.Input, which may point it at a sample
	layer []float64     // the batch body's per-layer row (res.Layer)
	res   Result        // the batch body's result, Layer aliasing layer
}

// getScratch takes a scoring state from the list, building one only
// when every state the list kept is in use.
func (v *Validator) getScratch() *scoreScratch {
	if s, ok := v.scratch.Get(); ok && len(s.layer) == len(v.LayerIdx) {
		return s
	}
	n := len(v.LayerIdx)
	return &scoreScratch{fwd: nn.NewScratch(), feat: make([][]float64, n), layer: make([]float64, n)}
}

func (v *Validator) putScratch(s *scoreScratch) {
	s.hdr.Data = nil // a held state keeps no caller's pixels alive
	v.scratch.Put(s)
}

// Result is the outcome of scoring one sample (Algorithm 2).
type Result struct {
	// Label is the model's prediction y'.
	Label int
	// Confidence is the softmax probability of Label.
	Confidence float64
	// Layer[i] is d_i for validated layer LayerIdx[i]:
	// −t(f_i(x)) per Eq. 2; positive means "outside the reference
	// distribution". Non-finite terms are preserved here for
	// diagnostics but excluded from Joint.
	Layer []float64
	// Joint is Σ_i d_i (Eq. 3), summed over the finite terms only.
	Joint float64
	// NonFinite is true when the forward pass or any per-layer
	// discrepancy produced NaN or ±Inf — numeric corruption (an
	// overflowing activation, a poisoned weight) rather than a
	// measurable distance. Such samples must be quarantined, never
	// compared against ε: NaN compares false with everything, so a
	// poisoned Joint would otherwise read as "valid".
	NonFinite bool
}

// Fit runs Algorithm 1: it drops misclassified training images, groups
// the remaining hidden representations by true label per validated
// layer, and trains one ν-one-class SVM per (layer, class). All SVMs
// within one layer share the same parameters (Section IV-C), including
// a common RBF bandwidth derived from the layer's pooled activations.
func Fit(net *nn.Network, trainX []*tensor.Tensor, trainY []int, cfg Config) (*Validator, error) {
	if len(trainX) == 0 {
		return nil, fmt.Errorf("core: empty training set")
	}
	if len(trainX) != len(trainY) {
		return nil, fmt.Errorf("core: %d samples but %d labels", len(trainX), len(trainY))
	}
	for i, x := range trainX {
		if !x.SameShape(trainX[0]) {
			return nil, fmt.Errorf("core: training sample %d has shape %v, sample 0 has %v", i, x.Shape, trainX[0].Shape)
		}
	}
	if cfg.Nu <= 0 {
		cfg.Nu = 0.1
	}
	if cfg.MaxPerClass <= 0 {
		cfg.MaxPerClass = 200
	}
	if cfg.MaxFeatures <= 0 {
		cfg.MaxFeatures = 256
	}
	layers := cfg.Layers
	if layers == nil {
		for i := 0; i < net.NumLayers()-1; i++ {
			layers = append(layers, i)
		}
	}
	if len(layers) == 0 {
		return nil, fmt.Errorf("core: no layers selected for validation")
	}
	sorted := append([]int(nil), layers...)
	sort.Ints(sorted)
	for i, l := range sorted {
		if l < 0 || l >= net.NumLayers()-1 {
			return nil, fmt.Errorf("core: layer index %d outside hidden range [0, %d)", l, net.NumLayers()-1)
		}
		if i > 0 && sorted[i-1] == l {
			return nil, fmt.Errorf("core: duplicate layer index %d", l)
		}
	}
	layers = sorted
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Resolve fit-stage instruments once; every handle is nil (and
	// every observation a no-op) when cfg.Telemetry is nil.
	reg := cfg.Telemetry
	var (
		fitTotal   = reg.Histogram(MetricFitTotal, telemetry.DefLatencyBuckets)
		fitCollect = reg.Histogram(MetricFitCollect, telemetry.DefLatencyBuckets)
		fitForward = reg.Histogram(MetricFitForward, telemetry.DefLatencyBuckets)
		fitReduce  = reg.Histogram(MetricFitReduce, telemetry.DefLatencyBuckets)
		fitSVMAll  = reg.Histogram(MetricFitSVMStage, telemetry.DefLatencyBuckets)
		fitSVMOne  = reg.Histogram(MetricFitSVM, telemetry.DefLatencyBuckets)
	)
	totalSpan := telemetry.StartSpan(fitTotal)
	reg.Counter(MetricFitSamples).Add(int64(len(trainX)))

	// The reducers depend only on tap shapes, so they are sized up front
	// from the input geometry, before the collection pass fans out.
	tapShapes := net.TapShapes(trainX[0].Shape)
	reducers := make([]FeatureReducer, len(layers))
	for p, l := range layers {
		reducers[p] = fitReducer(tapShapes[l], cfg.MaxFeatures)
	}

	collectSpan := telemetry.StartSpan(fitCollect)
	feats := collectFeatures(net, trainX, trainY, layers, reducers, workers, fitForward, fitReduce)
	collectSpan.End()
	kept := feats.kept
	if len(kept) == 0 {
		return nil, fmt.Errorf("core: model misclassifies every training sample; nothing to fit")
	}
	reg.Counter(MetricFitKept).Add(int64(len(kept)))

	// Group the kept indices by class, every class a full-capacity slice
	// of one array, and subsample deterministically. A kept sample's
	// label is its prediction, so it lies in [0, Classes).
	counts := make([]int, net.Classes)
	for _, idx := range kept {
		counts[trainY[idx]]++
	}
	byClass, all := make([][]int, net.Classes), make([]int, len(kept))
	for k, off := 0, 0; k < net.Classes; k++ {
		byClass[k] = all[off : off : off+counts[k]]
		off += counts[k]
	}
	for j, idx := range kept {
		byClass[trainY[idx]] = append(byClass[trainY[idx]], j)
	}
	for k := range byClass {
		if len(byClass[k]) == 0 {
			return nil, fmt.Errorf("core: class %d has no correctly classified training samples", k)
		}
		byClass[k] = stride(byClass[k], cfg.MaxPerClass)
	}

	v := &Validator{
		ModelName: net.ModelName,
		Classes:   net.Classes,
		LayerIdx:  layers,
		Reducers:  reducers,
		SVMs:      make([][]*svm.OneClass, len(layers)),
		Nu:        cfg.Nu,
	}
	for p := range layers {
		v.SVMs[p] = make([]*svm.OneClass, net.Classes)
	}

	// One gamma per layer, shared by all its class SVMs.
	gammas := make([]float64, len(layers))
	for p := range layers {
		gammas[p] = feats.pooledScaleGamma(p)
	}

	// Fan the (layer, class) fits across a worker pool; each fit is
	// independent (the paper: "the training and validation pipeline can
	// be parallelized based on our design"). Each worker trains all of
	// its jobs on one solver workspace and one row slice, so the fits
	// allocate only the models they return.
	maxRows := 0
	for _, idx := range byClass {
		maxRows = max(maxRows, len(idx))
	}
	type job struct{ p, k int }
	jobs := make(chan job)
	errs := make([]error, len(layers)*net.Classes)
	svmSpan := telemetry.StartSpan(fitSVMAll)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ws svm.Workspace
			data := make([][]float64, 0, maxRows)
			for j := range jobs {
				oneSpan := telemetry.StartSpan(fitSVMOne)
				data = data[:0]
				for _, i := range byClass[j.k] {
					data = append(data, feats.row(j.p, i))
				}
				m, err := ws.Train(data, svm.Config{Nu: cfg.Nu, Gamma: gammas[j.p]})
				oneSpan.End()
				if err != nil {
					errs[j.p*net.Classes+j.k] = fmt.Errorf("core: SVM(layer %d, class %d): %w", v.LayerIdx[j.p], j.k, err)
					continue
				}
				v.SVMs[j.p][j.k] = m
			}
		}()
	}
	for p := range layers {
		for k := 0; k < net.Classes; k++ {
			jobs <- job{p, k}
		}
	}
	close(jobs)
	wg.Wait()
	svmSpan.End()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	if !cfg.SkipDriftSnapshot {
		driftSpan := telemetry.StartSpan(reg.Histogram(MetricFitDrift, telemetry.DefLatencyBuckets))
		v.snapshotDrift(feats, byClass, workers)
		driftSpan.End()
	}
	totalSpan.End()
	return v, nil
}

// featureBlock is the length of the runs of consecutive samples the
// collection workers claim: the kept samples of one run share one row
// block, so a fit allocates one object per run rather than per sample.
const featureBlock = 64

// featureRows is collectFeatures' result: kept sample j's reduced
// features at every layer position, back to back in one row of
// bounds[len(bounds)-1] floats. The rows of run b's kept samples (input
// indices [b·featureBlock, (b+1)·featureBlock)) lie in input order in
// blocks[b], which is nil when the run kept none.
type featureRows struct {
	kept   []int       // the kept sample indices, in input order
	bounds []int       // layer position p of a row is row[bounds[p]:bounds[p+1]]
	blocks [][]float64 // one per run
	first  []int       // first[b] is the kept index of blocks[b]'s first row
}

// row returns kept sample j's layer-position-p features, a view with
// full capacity so that no row can grow into its neighbour.
func (f *featureRows) row(p, j int) []float64 {
	b := f.kept[j] / featureBlock
	o := (j - f.first[b]) * f.bounds[len(f.bounds)-1]
	lo, hi := o+f.bounds[p], o+f.bounds[p+1]
	return f.blocks[b][lo:hi:hi]
}

// collectFeatures is Algorithm 1 line 2: it keeps only the correctly
// classified samples and reduces their hidden representations at the
// given layers, one tapped forward pass per sample. The workers (≥ 1)
// claim runs of featureBlock consecutive samples, and each run's kept
// rows go into one block sized for the rest of the run at its first
// kept sample, so a run's samples dropped after that one leave their
// rows unused. The result is indexed by position in input order, so it
// is independent of the worker count.
//
// Each worker runs its passes on an arena from the network's free list,
// held for the whole collection and handed back when it ends, so a
// network that has fitted before builds none. Taps alias arena memory
// until the worker's next pass; the reduction copies them out into the
// sample's row. Every sample must share xs[0]'s shape (Fit checks
// this), so each reducer fills its slot of the row in place. fwd and
// reduce, when non-nil, time each sample's pass and reduction.
func collectFeatures(net *nn.Network, xs []*tensor.Tensor, ys []int, layers []int, reducers []FeatureReducer,
	workers int, fwd, reduce *telemetry.Histogram) *featureRows {
	tapShapes := net.TapShapes(xs[0].Shape)
	bounds := make([]int, len(layers)+1)
	for p, l := range layers {
		bounds[p+1] = bounds[p] + reducers[p].OutDim(tapShapes[l])
	}
	dim := bounds[len(layers)]

	instrumented := fwd != nil || reduce != nil
	runs := (len(xs) + featureBlock - 1) / featureBlock
	arenas := make([]*nn.Scratch, workers)
	blocks := make([][]float64, runs)
	counts := make([]int, runs)
	keep := make([]bool, len(xs))
	forEachIndex(runs, workers, func(w, b int) {
		if arenas[w] == nil {
			arenas[w] = net.GetScratch()
		}
		var blk []float64
		end := min((b+1)*featureBlock, len(xs))
		for idx := b * featureBlock; idx < end; idx++ {
			var t0 time.Time
			if instrumented {
				t0 = time.Now()
			}
			probs, taps := net.ForwardTappedScratch(xs[idx], arenas[w])
			if instrumented {
				fwd.ObserveSince(t0)
			}
			if probs.ArgMax() != ys[idx] {
				continue
			}
			if instrumented {
				t0 = time.Now()
			}
			if blk == nil {
				blk = make([]float64, (end-idx)*dim)
			}
			o := counts[b] * dim
			for p, l := range layers {
				lo, hi := o+bounds[p], o+bounds[p+1]
				reducers[p].ReduceInto(blk[lo:hi:hi], taps[l])
			}
			if instrumented {
				reduce.ObserveSince(t0)
			}
			counts[b]++
			keep[idx] = true
		}
		blocks[b] = blk
	})
	for _, sc := range arenas {
		if sc != nil {
			net.PutScratch(sc)
		}
	}

	first, n := make([]int, runs), 0
	for b, c := range counts {
		first[b] = n
		n += c
	}
	kept := make([]int, 0, n)
	for idx, k := range keep {
		if k {
			kept = append(kept, idx)
		}
	}
	return &featureRows{kept: kept, bounds: bounds, blocks: blocks, first: first}
}

// DefaultDriftProbs are the quantile probabilities of the fit-time
// drift reference. Five probabilities spanning the tails and the body
// keep the persisted reference tiny while still catching both location
// and spread shifts.
var DefaultDriftProbs = []float64{0.05, 0.25, 0.5, 0.75, 0.95}

// snapshotDrift records the per-layer discrepancy quantiles over the
// SVMs' own training points — exactly the d_i = −t(f_i(x)) a correctly
// classified in-distribution sample produces at serve time, because
// for these samples the predicted class is the true class. The sample
// order is fixed (class-major over the deterministic subsample) and
// the values are sorted before taking exact quantiles, so the
// reference is bit-identical at any worker count.
func (v *Validator) snapshotDrift(feats *featureRows, byClass [][]int, workers int) {
	quantiles := make([][]float64, len(v.LayerIdx))
	ok := true
	var mu sync.Mutex
	total, maxRows := 0, 0
	for _, idx := range byClass {
		total += len(idx)
		maxRows = max(maxRows, len(idx))
	}
	forEachIndex(len(v.LayerIdx), workers, func(_, p int) {
		ds := make([]float64, 0, total)
		rows := make([][]float64, 0, maxRows)
		dec := make([]float64, maxRows)
		for k := range byClass {
			// One batched decision call per (layer, class) SVM over all
			// of its training points — bit-identical to the per-point
			// scalar Decision, just without the per-call overhead.
			rows = rows[:0]
			for _, i := range byClass[k] {
				rows = append(rows, feats.row(p, i))
			}
			v.SVMs[p][k].DecisionBatchInto(dec[:len(rows)], rows)
			for _, f := range dec[:len(rows)] {
				if d := -f; finite(d) {
					ds = append(ds, d)
				}
			}
		}
		if len(ds) == 0 {
			mu.Lock()
			ok = false
			mu.Unlock()
			return
		}
		sort.Float64s(ds)
		quantiles[p] = metrics.QuantilesSorted(ds, DefaultDriftProbs)
	})
	if !ok {
		// A layer produced no finite discrepancies at all — leave the
		// reference absent rather than persisting NaNs.
		return
	}
	v.DriftProbs = append([]float64(nil), DefaultDriftProbs...)
	v.DriftQuantiles = quantiles
}

// HasDriftReference reports whether the validator carries a fit-time
// drift reference (false for legacy artifacts and SkipDriftSnapshot
// fits).
func (v *Validator) HasDriftReference() bool {
	return len(v.DriftQuantiles) == len(v.LayerIdx) && len(v.DriftQuantiles) > 0 &&
		len(v.DriftProbs) >= 2
}

// stride subsamples idx down to at most max entries with an even
// stride, keeping coverage across the original ordering.
func stride(idx []int, max int) []int {
	if len(idx) <= max {
		return idx
	}
	out := make([]int, 0, max)
	step := float64(len(idx)) / float64(max)
	for i := 0; i < max; i++ {
		out = append(out, idx[int(float64(i)*step)])
	}
	return out
}

// pooledScaleGamma computes the scikit-learn "scale" bandwidth over
// layer position p's features of every kept sample (all classes
// pooled), so every SVM in the layer shares it.
func (f *featureRows) pooledScaleGamma(p int) float64 {
	n := 0
	mean := 0.0
	for j := range f.kept {
		for _, v := range f.row(p, j) {
			mean += v
			n++
		}
	}
	if n == 0 {
		return 1
	}
	mean /= float64(n)
	variance := 0.0
	for j := range f.kept {
		for _, v := range f.row(p, j) {
			variance += float64((v - mean) * (v - mean))
		}
	}
	variance /= float64(n)
	if variance < 1e-12 {
		variance = 1e-12
	}
	return 1 / (float64(f.bounds[p+1]-f.bounds[p]) * variance)
}

// Clone returns a shallow copy sharing the fitted components (SVMs,
// reducers, slices) but carrying no telemetry attachment and no scoring
// states — the idiom for tweaking a validator (normalization, layer
// subsets) without mutating the original. The Validator struct itself
// must not be copied by assignment; it embeds an atomic telemetry slot
// and a mutex-guarded free list.
func (v *Validator) Clone() *Validator {
	return &Validator{
		ModelName:      v.ModelName,
		Classes:        v.Classes,
		LayerIdx:       v.LayerIdx,
		Reducers:       v.Reducers,
		SVMs:           v.SVMs,
		Nu:             v.Nu,
		NormMean:       v.NormMean,
		NormStd:        v.NormStd,
		DriftProbs:     v.DriftProbs,
		DriftQuantiles: v.DriftQuantiles,
	}
}

// ScoreTimings receives the stage timings of one ScoreTimed call:
// the tapped forward pass and each per-layer SVM evaluation (indexed
// like LayerIdx). It exists for the serving trace spans; passing nil
// keeps scoring free of clock reads beyond what telemetry already
// takes.
type ScoreTimings struct {
	Forward time.Duration
	Layers  []time.Duration
}

// Score runs Algorithm 2 on one sample: a single tapped forward pass,
// then per-layer discrepancies against the SVMs of the predicted class.
// With telemetry attached (SetTelemetry), each call also observes its
// latency and its per-layer and joint discrepancies; detached, the
// only cost is one atomic pointer load.
func (v *Validator) Score(net *nn.Network, x *tensor.Tensor) Result {
	return v.ScoreTimed(net, x, nil)
}

// ScoreTimed is Score with optional stage timing: a non-nil tm is
// filled with the forward-pass and per-layer durations. The arithmetic
// is byte-for-byte the same as Score — timing only adds clock reads —
// so results are bit-identical with tm nil or not.
func (v *Validator) ScoreTimed(net *nn.Network, x *tensor.Tensor, tm *ScoreTimings) Result {
	sc := v.getScratch()
	defer v.putScratch(sc)
	res := Result{Layer: make([]float64, len(v.LayerIdx))}
	v.score(net, x, sc, tm, &res)
	return res
}

// score is Algorithm 2 on one sample, the body every scoring entry
// point runs: one tapped forward pass on sc, then each validated
// layer's reduction and predicted-class SVM decision, in LayerIdx
// order. It overwrites every field of res, writing d_i into res.Layer,
// which must hold len(LayerIdx) values.
func (v *Validator) score(net *nn.Network, x *tensor.Tensor, sc *scoreScratch, tm *ScoreTimings, res *Result) {
	tel := v.tel.Load()
	var t0 time.Time
	if tel != nil || tm != nil {
		t0 = time.Now()
	}
	probs, taps := net.ForwardTappedScratch(x, sc.fwd)
	if tm != nil {
		tm.Forward = time.Since(t0)
		if cap(tm.Layers) >= len(v.LayerIdx) {
			tm.Layers = tm.Layers[:len(v.LayerIdx)]
		} else {
			tm.Layers = make([]time.Duration, len(v.LayerIdx))
		}
	}
	label := probs.ArgMax()
	*res = Result{
		Label:      label,
		Confidence: probs.Data[label],
		Layer:      res.Layer[:len(v.LayerIdx)],
	}
	if !finite(res.Confidence) {
		// The softmax itself overflowed; zero the confidence so the
		// verdict stays JSON-encodable and flag the numeric corruption.
		res.Confidence = 0
		res.NonFinite = true
	}
	var lt time.Time
	for p, l := range v.LayerIdx {
		if tm != nil {
			lt = time.Now()
		}
		sc.feat[p] = v.Reducers[p].ReduceInto(sc.feat[p], taps[l])
		sc.xrow[0] = sc.feat[p]
		d := -v.SVMs[p][label].DecisionBatchInto(sc.drow[:], sc.xrow[:])[0]
		if tm != nil {
			tm.Layers[p] = time.Since(lt)
		}
		res.Layer[p] = d
		if !finite(d) {
			res.NonFinite = true
			continue // keep the poison out of the Eq. 3 sum
		}
		res.Joint += d
	}
	if tel != nil {
		tel.scoreLatency.ObserveSince(t0)
		if !res.NonFinite {
			// Non-finite samples are counted by the detector's quarantine
			// counter; their partial sums would distort the histograms.
			tel.joint.Observe(res.Joint)
			for p, d := range res.Layer {
				tel.layers[p].Observe(d)
			}
		}
	}
}

// WeightedJoint recomputes the joint discrepancy of a Result with
// per-layer weights — the refinement Section IV-D3 suggests over the
// unweighted sum. len(weights) must equal len(r.Layer).
func (r Result) WeightedJoint(weights []float64) float64 {
	if len(weights) != len(r.Layer) {
		panic(fmt.Sprintf("core: %d weights for %d layers", len(weights), len(r.Layer)))
	}
	s := 0.0
	for i, d := range r.Layer {
		s += float64(weights[i] * d)
	}
	return s
}

// ScoreBatchWorkers scores many samples across a bounded worker pool,
// returning results in input order. Scoring is read-only on both the
// validator and the network, so the samples are independent. workers ≤
// 0 uses GOMAXPROCS; workers == 1 runs sequentially on the calling
// goroutine. Every worker count yields identical results.
func (v *Validator) ScoreBatchWorkers(net *nn.Network, xs []*tensor.Tensor, workers int) []Result {
	out := make([]Result, len(xs))
	v.ScoreEach(net, len(xs), workers, Funcs{In: Tensors(xs), Out: func(i int, res *Result) {
		out[i] = *res
		out[i].Layer = append([]float64(nil), res.Layer...)
	}}, nil)
	return out
}

// Batch is what ScoreEach scores: it supplies the samples and receives
// their results.
type Batch interface {
	// Input returns sample i. hdr is a tensor header the calling worker
	// owns for the whole batch: Input may point it at the sample's data
	// and return it, so a batch builds no tensor per sample. Scoring
	// only reads the returned tensor, and only until ScoreEach returns.
	Input(i int, hdr *tensor.Tensor) *tensor.Tensor
	// Emit receives sample i's result on the worker that scored it,
	// concurrently for distinct samples. res and its Layer belong to
	// that worker's scoring state and are overwritten by its next
	// sample, so Emit must copy whatever it keeps.
	Emit(i int, res *Result)
}

// Funcs is a Batch of two functions, for callers off the serving path:
// passing one to ScoreEach allocates it and its closures, where a
// pointer to a long-lived Batch allocates nothing.
type Funcs struct {
	In  func(i int, hdr *tensor.Tensor) *tensor.Tensor
	Out func(i int, res *Result)
}

func (f Funcs) Input(i int, hdr *tensor.Tensor) *tensor.Tensor { return f.In(i, hdr) }
func (f Funcs) Emit(i int, res *Result)                        { f.Out(i, res) }

// Tensors is the Funcs.In over ready-made tensors.
func Tensors(xs []*tensor.Tensor) func(int, *tensor.Tensor) *tensor.Tensor {
	return func(i int, _ *tensor.Tensor) *tensor.Tensor { return xs[i] }
}

// ScoreEach is the one batch scoring primitive: it scores samples
// 0..n-1 of b across a bounded worker pool (workers as in
// ScoreBatchWorkers) and hands each result to b.Emit. Each worker takes
// one scoring state when it starts and returns it when the samples run
// out, so a warm batch allocates nothing per sample. A single worker
// scores on the calling goroutine and makes no closure, counter or
// goroutine, so a call with a long-lived b allocates nothing at all.
// tms may be nil, shorter than n, or hold nil entries: only samples
// with a non-nil *ScoreTimings pay for clock reads. Results are
// identical at every worker count.
func (v *Validator) ScoreEach(net *nn.Network, n, workers int, b Batch, tms []*ScoreTimings) {
	k := poolSize(n, workers)
	if k <= 1 {
		if n > 0 {
			v.scoreWorker(net, n, b, tms, nil)
		}
		return
	}
	// Each worker takes its state on its own goroutine, not up front
	// from the caller, so a worker that has not started holds none.
	fanOut(k, func(_ int, next *atomic.Int64) { v.scoreWorker(net, n, b, tms, next) })
}

// scoreWorker is one ScoreEach worker: on one scoring state it scores
// the samples it claims from the shared counter next, or every sample
// in order when next is nil, until none are left.
func (v *Validator) scoreWorker(net *nn.Network, n int, b Batch, tms []*ScoreTimings, next *atomic.Int64) {
	sc := v.getScratch()
	defer v.putScratch(sc)
	for i := 0; ; i++ {
		if next != nil {
			i = int(next.Add(1)) - 1
		}
		if i >= n {
			return
		}
		var tm *ScoreTimings
		if i < len(tms) {
			tm = tms[i]
		}
		sc.res.Layer = sc.layer
		v.score(net, b.Input(i, &sc.hdr), sc, tm, &sc.res)
		b.Emit(i, &sc.res)
	}
}

// forEachIndex runs fn(w, i) for i in 0..n-1 across a bounded worker
// pool, where w in [0, workers) names the worker making the call — no
// two concurrent calls share a w, so fn may index per-worker state by
// it. workers ≤ 0 uses GOMAXPROCS; the pool never exceeds n goroutines,
// and with a single worker fn runs inline on the caller as worker 0. fn
// must be safe to call concurrently for distinct indices.
func forEachIndex(n, workers int, fn func(w, i int)) {
	workers = poolSize(n, workers)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	fanOut(workers, func(w int, next *atomic.Int64) {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(w, i)
		}
	})
}

// fanOut is the one worker pool under ScoreEach and forEachIndex: it
// runs worker(w, next) on k goroutines, w in [0, k), and waits for all
// of them. The k share the claim counter next, whose Add(1)-1 is the
// next unclaimed index. The counter and the wait group share one heap
// object, so a call makes 2 + k: that object, worker's closure and the
// k goroutines' closures.
func fanOut(k int, worker func(w int, next *atomic.Int64)) {
	var p struct {
		next atomic.Int64
		wg   sync.WaitGroup
	}
	p.wg.Add(k)
	for w := range k {
		go func() {
			defer p.wg.Done()
			worker(w, &p.next)
		}()
	}
	p.wg.Wait()
}

// poolSize is the number of workers forEachIndex runs for n items:
// workers, or GOMAXPROCS when workers ≤ 0, capped at n.
func poolSize(n, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, n)
}

// JointScores extracts the joint discrepancies from a batch of results.
func JointScores(rs []Result) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Joint
	}
	return out
}

// LayerScores extracts single-validator discrepancies for layer
// position p (an index into LayerIdx, not a tap index).
func LayerScores(rs []Result, p int) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Layer[p]
	}
	return out
}

// Encode writes the validator in gob format (the artifact payload
// format; Save wraps it in the checksummed container).
func (v *Validator) Encode(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(v); err != nil {
		return fmt.Errorf("core: encoding validator for %q: %w", v.ModelName, err)
	}
	return nil
}

// DecodeValidator reads a validator written by Encode and validates
// its structural invariants. Each SVM's support vectors are then
// flattened into the one matrix its decisions read, so the decoded
// validator holds them once and is complete before it is shared.
// Artifacts that still carry the retired per-SVM SVNorms field load
// too, because gob skips stream fields the struct lacks.
func DecodeValidator(r io.Reader) (*Validator, error) {
	var v Validator
	if err := gob.NewDecoder(r).Decode(&v); err != nil {
		return nil, fmt.Errorf("core: decoding validator: %w", err)
	}
	if err := v.Validate(); err != nil {
		return nil, err
	}
	for _, row := range v.SVMs {
		for _, m := range row {
			m.Flatten()
		}
	}
	return &v, nil
}

// Validate checks the invariants a freshly decoded validator must hold
// before it can score traffic: a positive class count, sorted unique
// layer indices, one reducer and one full row of fitted SVMs per
// layer, and finite SVM coefficients. Corrupt-but-decodable artifacts
// fail here with an error instead of panicking inside Score.
func (v *Validator) Validate() error {
	if v.Classes <= 0 {
		return fmt.Errorf("core: validator for %q declares %d classes", v.ModelName, v.Classes)
	}
	if len(v.LayerIdx) == 0 {
		return fmt.Errorf("core: validator for %q validates no layers", v.ModelName)
	}
	for i, l := range v.LayerIdx {
		if l < 0 {
			return fmt.Errorf("core: validator for %q has negative layer index %d", v.ModelName, l)
		}
		if i > 0 && v.LayerIdx[i-1] >= l {
			return fmt.Errorf("core: validator for %q has unsorted or duplicate layer indices %v", v.ModelName, v.LayerIdx)
		}
	}
	if len(v.Reducers) != len(v.LayerIdx) {
		return fmt.Errorf("core: validator for %q has %d reducers for %d layers", v.ModelName, len(v.Reducers), len(v.LayerIdx))
	}
	if len(v.SVMs) != len(v.LayerIdx) {
		return fmt.Errorf("core: validator for %q has %d SVM rows for %d layers", v.ModelName, len(v.SVMs), len(v.LayerIdx))
	}
	for p, row := range v.SVMs {
		if len(row) != v.Classes {
			return fmt.Errorf("core: validator for %q has %d SVMs at layer %d for %d classes", v.ModelName, len(row), v.LayerIdx[p], v.Classes)
		}
		for k, m := range row {
			if m == nil {
				return fmt.Errorf("core: validator for %q is missing SVM(layer %d, class %d)", v.ModelName, v.LayerIdx[p], k)
			}
			if m.Kind != svm.KernelRBF {
				return fmt.Errorf("core: SVM(layer %d, class %d) of %q has kernel %q; only %q models can be scored",
					v.LayerIdx[p], k, v.ModelName, m.Kind, svm.KernelRBF)
			}
			if m.Dim <= 0 || len(m.Support) != len(m.Alpha) {
				return fmt.Errorf("core: SVM(layer %d, class %d) of %q is malformed (%d-dim, %d support vectors, %d coefficients)",
					v.LayerIdx[p], k, v.ModelName, m.Dim, len(m.Support), len(m.Alpha))
			}
			if !finite(m.Rho) || !finite(m.Gamma) || !finiteAll(m.Alpha) {
				return fmt.Errorf("core: SVM(layer %d, class %d) of %q carries non-finite coefficients", v.LayerIdx[p], k, v.ModelName)
			}
			for _, sv := range m.Support {
				if len(sv) != m.Dim {
					return fmt.Errorf("core: SVM(layer %d, class %d) of %q has a %d-dim support vector in a %d-dim model",
						v.LayerIdx[p], k, v.ModelName, len(sv), m.Dim)
				}
				if !finiteAll(sv) {
					return fmt.Errorf("core: SVM(layer %d, class %d) of %q carries a non-finite support vector", v.LayerIdx[p], k, v.ModelName)
				}
			}
		}
	}
	for _, s := range [][]float64{v.NormMean, v.NormStd} {
		if len(s) != 0 && len(s) != len(v.LayerIdx) {
			return fmt.Errorf("core: validator for %q has %d normalization terms for %d layers", v.ModelName, len(s), len(v.LayerIdx))
		}
		if !finiteAll(s) {
			return fmt.Errorf("core: validator for %q carries non-finite normalization statistics", v.ModelName)
		}
	}
	// The drift reference is optional (legacy artifacts gob-decode with
	// both fields nil), but when present it must be shaped and finite —
	// a corrupted reference must fail the load, not poison drift scores.
	if len(v.DriftProbs) != 0 || len(v.DriftQuantiles) != 0 {
		if len(v.DriftProbs) < 2 {
			return fmt.Errorf("core: validator for %q has a drift reference with %d quantile probabilities (want >= 2)", v.ModelName, len(v.DriftProbs))
		}
		for j, q := range v.DriftProbs {
			if !finite(q) || q < 0 || q > 1 || (j > 0 && v.DriftProbs[j-1] >= q) {
				return fmt.Errorf("core: validator for %q has malformed drift probabilities %v", v.ModelName, v.DriftProbs)
			}
		}
		if len(v.DriftQuantiles) != len(v.LayerIdx) {
			return fmt.Errorf("core: validator for %q has %d drift quantile rows for %d layers", v.ModelName, len(v.DriftQuantiles), len(v.LayerIdx))
		}
		for p, row := range v.DriftQuantiles {
			if len(row) != len(v.DriftProbs) {
				return fmt.Errorf("core: validator for %q has %d drift quantiles at layer %d for %d probabilities", v.ModelName, len(row), v.LayerIdx[p], len(v.DriftProbs))
			}
			if !finiteAll(row) {
				return fmt.Errorf("core: validator for %q carries non-finite drift quantiles at layer %d", v.ModelName, v.LayerIdx[p])
			}
			for j := 1; j < len(row); j++ {
				if row[j-1] > row[j] {
					return fmt.Errorf("core: validator for %q has non-monotone drift quantiles at layer %d", v.ModelName, v.LayerIdx[p])
				}
			}
		}
	}
	return nil
}

// CheckCompat cross-checks a model/validator pair before they are
// trusted to serve together: matching model names and class counts,
// layer indices inside the network's hidden range, and — the check
// that prevents a panic deep inside svm.Decision — every reducer's
// output dimensionality against its SVMs' expected input. Run it on
// every load and hot reload; a mismatched pair (e.g. a validator
// fitted for last week's architecture) is an operator error that must
// be rejected while the previous detector keeps serving.
func CheckCompat(net *nn.Network, val *Validator) error {
	if net == nil || val == nil {
		return fmt.Errorf("core: compatibility check needs both a network and a validator")
	}
	if net.ModelName != val.ModelName {
		return fmt.Errorf("core: model %q and validator %q disagree on the model name", net.ModelName, val.ModelName)
	}
	if net.Classes != val.Classes {
		return fmt.Errorf("core: model %q has %d classes but its validator was fitted for %d", net.ModelName, net.Classes, val.Classes)
	}
	for _, l := range val.LayerIdx {
		if l >= net.NumLayers()-1 {
			return fmt.Errorf("core: validator probes layer %d but model %q has %d hidden layers", l, net.ModelName, net.NumLayers()-1)
		}
	}
	tapShapes := net.TapShapes(net.InShape)
	for p, l := range val.LayerIdx {
		want := val.SVMs[p][0].Dim
		if got := val.Reducers[p].OutDim(tapShapes[l]); got != want {
			return fmt.Errorf("core: layer %d of model %q yields %d features but its SVMs expect %d (validator fitted for a different architecture?)",
				l, net.ModelName, got, want)
		}
	}
	return nil
}

// Pair is a model and its validator as LoadPair returns them, with how
// each file was read: the container header whose payload checksum was
// verified, or Legacy set for a bare gob.
type Pair struct {
	Net           *nn.Network
	Val           *Validator
	ModelInfo     artifact.Info
	ValidatorInfo artifact.Info
}

// IncompatibleError is LoadPair's error for a model and a validator
// that each load cleanly but fail CheckCompat. It reads as, and
// unwraps to, CheckCompat's error.
type IncompatibleError struct{ Err error }

func (e *IncompatibleError) Error() string { return e.Err.Error() }
func (e *IncompatibleError) Unwrap() error { return e.Err }

// LoadPair loads a model and its validator together: the validator on
// a second goroutine, the model on the caller's, each through
// nn.LoadInfo or LoadValidatorInfo, so each payload's SHA-256 is
// verified before gob reads a byte of it. It joins both loads before it
// returns, on error too, then runs CheckCompat. When both files are
// bad the model's error wins, so the error never depends on which load
// finished first. At GOMAXPROCS 1 the two loads take turns on one core
// and cost what they cost in sequence.
func LoadPair(modelPath, validatorPath string) (Pair, error) {
	type loaded struct {
		val      *Validator
		info     artifact.Info
		err      error
		panicked any
	}
	done := make(chan loaded, 1)
	go func() {
		var l loaded
		// A panic resurfaces on the caller's goroutine, as it would in
		// a sequential load: net/http recovers a reload handler's
		// panic, but not one on a goroutine of its own.
		defer func() {
			l.panicked = recover()
			done <- l
		}()
		l.val, l.info, l.err = LoadValidatorInfo(validatorPath)
	}()
	net, mInfo, mErr := nn.LoadInfo(modelPath)
	v := <-done
	switch {
	case v.panicked != nil:
		panic(v.panicked)
	case mErr != nil:
		return Pair{}, mErr
	case v.err != nil:
		return Pair{}, v.err
	}
	if err := CheckCompat(net, v.val); err != nil {
		return Pair{}, &IncompatibleError{Err: err}
	}
	return Pair{Net: net, Val: v.val, ModelInfo: mInfo, ValidatorInfo: v.info}, nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func finiteAll(s []float64) bool {
	for _, v := range s {
		if !finite(v) {
			return false
		}
	}
	return true
}

// Save atomically persists the validator as a checksummed artifact
// container (see internal/artifact); a crash mid-save leaves any
// previous artifact at path intact.
func (v *Validator) Save(path string) error {
	var buf bytes.Buffer
	if err := v.Encode(&buf); err != nil {
		return err
	}
	h := artifact.Header{
		Kind:      artifact.KindValidator,
		ModelName: v.ModelName,
		Classes:   v.Classes,
		Layers:    append([]int(nil), v.LayerIdx...),
	}
	if err := artifact.WriteFile(path, h, buf.Bytes()); err != nil {
		return fmt.Errorf("core: saving validator: %w", err)
	}
	return nil
}

// LoadValidator reads a validator saved by Save, verifying the
// container checksum and header↔payload identity; legacy bare-gob
// files load through a transparent fallback. The decoded validator is
// structurally validated either way.
func LoadValidator(path string) (*Validator, error) {
	v, _, err := LoadValidatorInfo(path)
	return v, err
}

// LoadValidatorInfo is LoadValidator that also returns how the file was
// read: the container header whose payload checksum it verified, or
// Legacy set for a bare gob.
func LoadValidatorInfo(path string) (*Validator, artifact.Info, error) {
	info, payload, err := artifact.ReadFile(path)
	if err != nil {
		return nil, info, fmt.Errorf("core: loading validator: %w", err)
	}
	v, err := DecodeValidator(bytes.NewReader(payload))
	if err != nil {
		return nil, info, fmt.Errorf("core: loading validator from %s: %w", path, err)
	}
	if !info.Legacy {
		h := info.Header
		if h.Kind != artifact.KindValidator {
			return nil, info, fmt.Errorf("core: %s is a %q artifact, want %q", path, h.Kind, artifact.KindValidator)
		}
		if h.ModelName != v.ModelName || h.Classes != v.Classes || !layersEqual(h.Layers, v.LayerIdx) {
			return nil, info, fmt.Errorf("core: %s header (%s, %d classes, layers %v) disagrees with its payload (%s, %d classes, layers %v)",
				path, h.ModelName, h.Classes, h.Layers, v.ModelName, v.Classes, v.LayerIdx)
		}
	}
	return v, info, nil
}

func layersEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
