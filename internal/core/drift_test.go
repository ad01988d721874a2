package core

import (
	"bytes"
	"math"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestFitDriftReference(t *testing.T) {
	net, xs, ys := trainedToyModel(t)
	v := fitToyValidator(t, net, xs, ys)
	if !v.HasDriftReference() {
		t.Fatal("Fit did not record a drift reference")
	}
	if len(v.DriftProbs) != len(DefaultDriftProbs) {
		t.Fatalf("DriftProbs = %v", v.DriftProbs)
	}
	if len(v.DriftQuantiles) != len(v.LayerIdx) {
		t.Fatalf("%d quantile rows for %d layers", len(v.DriftQuantiles), len(v.LayerIdx))
	}
	for p, row := range v.DriftQuantiles {
		if len(row) != len(v.DriftProbs) {
			t.Fatalf("layer %d has %d quantiles", p, len(row))
		}
		for j, q := range row {
			if math.IsNaN(q) || math.IsInf(q, 0) {
				t.Fatalf("layer %d quantile %d is not finite: %v", p, j, q)
			}
			if j > 0 && row[j-1] > q {
				t.Fatalf("layer %d quantiles not monotone: %v", p, row)
			}
		}
	}
	if err := v.Validate(); err != nil {
		t.Fatalf("fitted validator with drift reference fails Validate: %v", err)
	}

	// In-distribution samples should mostly score inside the reference
	// envelope: the median of live training-data discrepancies must sit
	// within the recorded [q05, q95] band for every layer.
	res := v.ScoreBatchWorkers(net, xs[:50], 0)
	for p := range v.LayerIdx {
		inside := 0
		for _, r := range res {
			if r.Layer[p] >= v.DriftQuantiles[p][0] && r.Layer[p] <= v.DriftQuantiles[p][len(v.DriftProbs)-1] {
				inside++
			}
		}
		if inside < len(res)/2 {
			t.Fatalf("layer %d: only %d/%d training samples inside the reference band %v",
				v.LayerIdx[p], inside, len(res), v.DriftQuantiles[p])
		}
	}
}

// TestFitDriftReferenceDeterministic: the reference must be
// bit-identical at any worker count, like every other Fit output.
func TestFitDriftReferenceDeterministic(t *testing.T) {
	net, xs, ys := trainedToyModel(t)
	cfg := Config{Nu: 0.1, MaxPerClass: 60, MaxFeatures: 64}
	var refs []*Validator
	for _, workers := range []int{1, 3, 8} {
		cfg.Workers = workers
		v, err := Fit(net, xs, ys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, v)
	}
	base := refs[0]
	for _, v := range refs[1:] {
		for p := range base.DriftQuantiles {
			for j := range base.DriftQuantiles[p] {
				a, b := base.DriftQuantiles[p][j], v.DriftQuantiles[p][j]
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("drift quantile [%d][%d] differs across worker counts: %x vs %x",
						p, j, math.Float64bits(a), math.Float64bits(b))
				}
			}
		}
	}
}

func TestFitSkipDriftSnapshot(t *testing.T) {
	net, xs, ys := trainedToyModel(t)
	v, err := Fit(net, xs, ys, Config{Nu: 0.1, MaxPerClass: 60, MaxFeatures: 64, Workers: 2, SkipDriftSnapshot: true})
	if err != nil {
		t.Fatal(err)
	}
	if v.HasDriftReference() {
		t.Fatal("SkipDriftSnapshot still recorded a reference")
	}
	if err := v.Validate(); err != nil {
		t.Fatalf("drift-less validator fails Validate: %v", err)
	}
}

// TestDriftReferenceSurvivesSerialization pins the persistence story:
// the reference round-trips bit-for-bit through Save/Load, and a
// legacy payload (encoded without the fields) decodes to a validator
// with no reference — the drift-disabled degradation.
func TestDriftReferenceSurvivesSerialization(t *testing.T) {
	net, xs, ys := trainedToyModel(t)
	v := fitToyValidator(t, net, xs, ys)

	path := filepath.Join(t.TempDir(), "validator.dvart")
	if err := v.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadValidator(path)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.HasDriftReference() {
		t.Fatal("drift reference lost in Save/Load")
	}
	for p := range v.DriftQuantiles {
		for j := range v.DriftQuantiles[p] {
			if math.Float64bits(loaded.DriftQuantiles[p][j]) != math.Float64bits(v.DriftQuantiles[p][j]) {
				t.Fatalf("quantile [%d][%d] changed across Save/Load", p, j)
			}
		}
	}

	// Legacy path: encode with the drift fields stripped (what an old
	// binary would have written) and decode with today's schema.
	legacy := v.Clone()
	legacy.DriftProbs, legacy.DriftQuantiles = nil, nil
	var buf bytes.Buffer
	if err := legacy.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeValidator(&buf)
	if err != nil {
		t.Fatalf("legacy payload without drift fields rejected: %v", err)
	}
	if dec.HasDriftReference() {
		t.Fatal("legacy payload grew a drift reference out of nowhere")
	}
}

func TestValidateRejectsCorruptDriftReference(t *testing.T) {
	net, xs, ys := trainedToyModel(t)
	base := fitToyValidator(t, net, xs, ys)

	corrupt := func(mut func(v *Validator)) error {
		v := base.Clone()
		v.DriftProbs = append([]float64(nil), base.DriftProbs...)
		v.DriftQuantiles = make([][]float64, len(base.DriftQuantiles))
		for p := range v.DriftQuantiles {
			v.DriftQuantiles[p] = append([]float64(nil), base.DriftQuantiles[p]...)
		}
		mut(v)
		return v.Validate()
	}

	cases := map[string]func(v *Validator){
		"probs without quantiles": func(v *Validator) { v.DriftQuantiles = nil },
		"single prob":             func(v *Validator) { v.DriftProbs = v.DriftProbs[:1]; v.DriftQuantiles = nil },
		"unsorted probs":          func(v *Validator) { v.DriftProbs[0], v.DriftProbs[1] = v.DriftProbs[1], v.DriftProbs[0] },
		"prob out of range":       func(v *Validator) { v.DriftProbs[len(v.DriftProbs)-1] = 1.5 },
		"row count mismatch":      func(v *Validator) { v.DriftQuantiles = v.DriftQuantiles[:1] },
		"row length mismatch":     func(v *Validator) { v.DriftQuantiles[0] = v.DriftQuantiles[0][:2] },
		"non-finite quantile":     func(v *Validator) { v.DriftQuantiles[0][0] = math.NaN() },
		"non-monotone quantiles": func(v *Validator) {
			row := v.DriftQuantiles[0]
			row[0], row[len(row)-1] = row[len(row)-1]+1, row[0]
		},
	}
	for name, mut := range cases {
		if err := corrupt(mut); err == nil {
			t.Errorf("%s: Validate accepted a corrupt drift reference", name)
		}
	}
}

// TestScoreTimedMatchesScore pins the disabled-tracing guarantee at
// its root: timing must never change the arithmetic.
func TestScoreTimedMatchesScore(t *testing.T) {
	net, xs, ys := trainedToyModel(t)
	v := fitToyValidator(t, net, xs, ys)

	for i, x := range xs[:20] {
		plain := v.Score(net, x)
		var tm ScoreTimings
		timed := v.ScoreTimed(net, x, &tm)
		if math.Float64bits(plain.Joint) != math.Float64bits(timed.Joint) ||
			math.Float64bits(plain.Confidence) != math.Float64bits(timed.Confidence) ||
			plain.Label != timed.Label || plain.NonFinite != timed.NonFinite {
			t.Fatalf("sample %d: timed result differs: %+v vs %+v", i, timed, plain)
		}
		for p := range plain.Layer {
			if math.Float64bits(plain.Layer[p]) != math.Float64bits(timed.Layer[p]) {
				t.Fatalf("sample %d layer %d differs under timing", i, p)
			}
		}
		if tm.Forward <= 0 {
			t.Fatalf("sample %d: forward duration not recorded: %v", i, tm.Forward)
		}
		if len(tm.Layers) != len(v.LayerIdx) {
			t.Fatalf("sample %d: %d layer timings for %d layers", i, len(tm.Layers), len(v.LayerIdx))
		}
		for p, d := range tm.Layers {
			if d < 0 {
				t.Fatalf("sample %d: negative layer %d duration %v", i, p, d)
			}
		}
	}

	// Timings buffers are reused across calls without reallocation when
	// capacity suffices.
	tm := ScoreTimings{Layers: make([]time.Duration, 0, len(v.LayerIdx)+4)}
	v.ScoreTimed(net, xs[0], &tm)
	if len(tm.Layers) != len(v.LayerIdx) {
		t.Fatalf("reused buffer resized to %d", len(tm.Layers))
	}

	// Batch variant: nil tms, short tms, and sparse entries all score
	// identically to the plain batch.
	want := v.ScoreBatchWorkers(net, xs[:10], 2)
	tms := make([]*ScoreTimings, 4) // shorter than the batch
	tms[1] = &ScoreTimings{}
	got := make([]float64, len(want))
	v.ScoreEach(net, len(want), 2, Funcs{In: Tensors(xs[:10]), Out: func(i int, res *Result) { got[i] = res.Joint }}, tms)
	for i := range want {
		if math.Float64bits(want[i].Joint) != math.Float64bits(got[i]) {
			t.Fatalf("batch sample %d differs under sparse timing", i)
		}
	}
	if tms[1].Forward <= 0 {
		t.Fatal("timed batch member recorded no forward duration")
	}
}

// TestMonitorStatsUnderConcurrentCheckClone clones, validates and
// scores copies of a validator while other goroutines score through
// the original with Score and ScoreEach, as the root Detector's check
// body does (the name is kept from core's former Monitor type, whose
// statistics readers are now TestDetectorConcurrentChecks's). Under
// -race this is the clone-while-scoring coverage; every score must
// still equal the one taken before any goroutine started.
func TestMonitorStatsUnderConcurrentCheckClone(t *testing.T) {
	net, xs, ys := trainedToyModel(t)
	v := fitToyValidator(t, net, xs, ys)
	samples := xs[:12]
	want := make([]uint64, len(samples))
	for i, x := range samples {
		want[i] = math.Float64bits(v.Score(net, x).Joint)
	}

	const goroutines = 4
	var checkers, observers sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		checkers.Add(1)
		go func(g int) {
			defer checkers.Done()
			for i := 0; i < 15; i++ {
				k := (g*7 + i) % len(samples)
				if got := math.Float64bits(v.Score(net, samples[k]).Joint); got != want[k] {
					t.Errorf("sample %d: joint changed under concurrent clones", k)
					return
				}
				if i%5 == 0 {
					for j, d := range jointsEach(t, v, net, samples[:3], 2) {
						if math.Float64bits(d) != want[j] {
							t.Errorf("batch sample %d: joint changed under concurrent clones", j)
							return
						}
					}
				}
			}
		}(g)
	}
	observers.Add(1)
	go func() {
		defer observers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			c := v.Clone()
			if err := c.Validate(); err != nil {
				t.Error(err)
				return
			}
			if !c.HasDriftReference() {
				t.Error("clone lost the drift reference")
				return
			}
			if got := math.Float64bits(c.Score(net, samples[0]).Joint); got != want[0] {
				t.Error("clone scores differently from the original")
				return
			}
		}
	}()

	// The observer races against live scoring until every checker is done.
	checkers.Wait()
	close(stop)
	observers.Wait()
}
