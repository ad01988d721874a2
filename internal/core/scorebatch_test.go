package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"

	"deepvalidation/internal/nn"
)

// Allocation-budget and scratch-aliasing guards for the batched scoring
// hot path, plus the artifact-compatibility checks for the retired
// per-SVM SVNorms field: new artifacts do not write it, and the
// committed golden that carries it loads to the same validator as the
// one that never had it.

// TestScoreSteadyStateAllocBudget pins the per-sample allocation budget
// of a warmed-up Score. The Result itself owns one fresh Layer slice
// (callers retain Results, so it cannot alias scratch); everything else
// — forward-pass tensors, reduced features, SVM rows — must come from
// the per-worker arena. The budget is deliberately a hard small number:
// a regression that reintroduces per-call buffers jumps it by orders of
// magnitude.
func TestScoreSteadyStateAllocBudget(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race-detector instrumentation allocates; budgets apply to plain builds")
	}
	net, xs, ys := trainedToyModel(t)
	v := fitToyValidator(t, net, xs, ys)
	v.Score(net, xs[0]) // warm the validator's scoring states
	allocs := testing.AllocsPerRun(30, func() {
		v.Score(net, xs[0])
	})
	// Observed: 1 alloc/op (the Result.Layer slice). Allow slack for
	// runtime variation but fail hard before the pre-diet regime
	// (hundreds per score).
	if allocs > 8 {
		t.Errorf("steady-state Score allocates %.1f/op, budget is 8", allocs)
	}
}

// TestScoreBatchSteadyStateAllocBudget pins the per-batch budget of
// ScoreBatchWorkers at workers=1: linear in the batch size with the
// same tiny per-sample constant, plus the Results slice.
func TestScoreBatchSteadyStateAllocBudget(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race-detector instrumentation allocates; budgets apply to plain builds")
	}
	net, xs, ys := trainedToyModel(t)
	v := fitToyValidator(t, net, xs, ys)
	batch := xs[:8]
	v.ScoreBatchWorkers(net, batch, 1) // warm the validator's scoring states
	allocs := testing.AllocsPerRun(20, func() {
		v.ScoreBatchWorkers(net, batch, 1)
	})
	budget := float64(8*len(batch) + 8)
	if allocs > budget {
		t.Errorf("steady-state ScoreBatch(8) allocates %.1f/op, budget is %.0f", allocs, budget)
	}
}

// TestConcurrentScoresBitEqualSequential is the scratch-aliasing guard:
// many goroutines scoring through the shared pool concurrently (and
// concurrent ScoreBatchWorkers calls on top) must produce verdicts
// bit-identical to a single-threaded pass. Run under -race (the core
// package is part of the race gate) this also proves no arena is ever
// visible to two workers at once.
func TestConcurrentScoresBitEqualSequential(t *testing.T) {
	net, xs, ys := trainedToyModel(t)
	v := fitToyValidator(t, net, xs, ys)
	samples := xs[:12]

	want := make([]Result, len(samples))
	for i, x := range samples {
		want[i] = v.Score(net, x)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*len(samples))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				// Half the goroutines drive whole batches...
				rs := v.ScoreBatchWorkers(net, samples, 3)
				for i, r := range rs {
					if !resultBitsEqual(r, want[i]) {
						errs <- "batch verdict diverged under concurrency"
					}
				}
				return
			}
			// ...the other half hammer single scores in shuffled order.
			rng := rand.New(rand.NewSource(int64(g)))
			for _, i := range rng.Perm(len(samples)) {
				if r := v.Score(net, samples[i]); !resultBitsEqual(r, want[i]) {
					errs <- "single verdict diverged under concurrency"
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func resultBitsEqual(a, b Result) bool {
	if a.Label != b.Label || a.NonFinite != b.NonFinite ||
		math.Float64bits(a.Confidence) != math.Float64bits(b.Confidence) ||
		math.Float64bits(a.Joint) != math.Float64bits(b.Joint) ||
		len(a.Layer) != len(b.Layer) {
		return false
	}
	for i := range a.Layer {
		if math.Float64bits(a.Layer[i]) != math.Float64bits(b.Layer[i]) {
			return false
		}
	}
	return true
}

// TestFittedValidatorOmitsSVNorms: a freshly fitted validator's gob
// names no SVNorms field. Gob writes every field name into the stream's
// type descriptors, so the bytes alone show whether the field is there.
func TestFittedValidatorOmitsSVNorms(t *testing.T) {
	net, xs, ys := trainedToyModel(t)
	v := fitToyValidator(t, net, xs, ys)
	var buf bytes.Buffer
	if err := v.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte("SVNorms")) {
		t.Fatal("a fitted validator's gob still carries the SVNorms field")
	}
}

// TestGoldenNormsArtifactAgreesWithLegacy pins the committed golden
// that still carries SVNorms (validator_norms.dvart, saved when every
// fitted SVM persisted its support-vector norms) against the legacy
// golden that never had them (validator.dvart): both must load, re-encode
// to identical bytes and give bit-identical decisions, so dropping the
// field moved no verdict.
func TestGoldenNormsArtifactAgreesWithLegacy(t *testing.T) {
	const dir = "../../artifacts/golden/"
	raw, err := os.ReadFile(dir + "validator_norms.dvart")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte("SVNorms")) {
		t.Fatal("validator_norms.dvart no longer carries SVNorms; the test needs an artifact that does")
	}
	legacy, err := LoadValidator(dir + "validator.dvart")
	if err != nil {
		t.Fatal(err)
	}
	withNorms, err := LoadValidator(dir + "validator_norms.dvart")
	if err != nil {
		t.Fatal(err)
	}
	var lb, nb bytes.Buffer
	if err := legacy.Encode(&lb); err != nil {
		t.Fatal(err)
	}
	if err := withNorms.Encode(&nb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lb.Bytes(), nb.Bytes()) {
		t.Fatalf("the goldens re-encode to different bytes (%d vs %d)", lb.Len(), nb.Len())
	}
	rng := rand.New(rand.NewSource(77))
	for p, row := range legacy.SVMs {
		for c, lm := range row {
			nm := withNorms.SVMs[p][c]
			// Verdicts on random probes of the right dimensionality.
			xs := make([][]float64, 4)
			for i := range xs {
				xs[i] = make([]float64, lm.Dim)
				for j := range xs[i] {
					xs[i][j] = rng.NormFloat64()
				}
			}
			lv := lm.DecisionBatchInto(make([]float64, len(xs)), xs)
			nv := nm.DecisionBatchInto(make([]float64, len(xs)), xs)
			for i := range lv {
				if math.Float64bits(lv[i]) != math.Float64bits(nv[i]) {
					t.Fatalf("SVM [%d][%d] probe %d: the goldens disagree", p, c, i)
				}
			}
		}
	}
}

// TestCheckCompatRejectsDimMismatch: a validator whose reducer/SVM
// dimensionalities disagree with the network's tap shapes must be
// rejected before it can panic inside a decision call.
func TestCheckCompatRejectsDimMismatch(t *testing.T) {
	net, xs, ys := trainedToyModel(t)
	v := fitToyValidator(t, net, xs, ys)
	if err := CheckCompat(net, v); err != nil {
		t.Fatalf("compatible pair rejected: %v", err)
	}
	broken := v.Clone()
	for _, m := range broken.SVMs[0] {
		m.Dim++ // simulates a validator fitted for a wider layer
	}
	if err := CheckCompat(net, broken); err == nil {
		t.Fatal("CheckCompat accepted a validator with mismatched feature dims")
	}
}

// TestWarmScoringAfterGCBuildsNoArena: the validator's scoring states
// outlive garbage collection and are found from any goroutine. With
// GOMAXPROCS warm states on the list, two runtime.GC calls (which
// would empty a sync.Pool, victim cache included) and then a batch at
// 1 or GOMAXPROCS workers, run from a fresh goroutine, must allocate
// less than one forward arena, at GOMAXPROCS 1, 2 and 4.
func TestWarmScoringAfterGCBuildsNoArena(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race-detector instrumentation allocates; budgets apply to plain builds")
	}
	net, xs, ys := trainedToyModel(t)
	v := fitToyValidator(t, net, xs, ys)
	batch := xs[:16]
	arena := bytesAllocated(func() { net.ForwardTappedScratch(batch[0], nn.NewScratch()) })
	// warm leaves k warm states on the list: all k held at once, as k
	// concurrent workers would hold them, and each scores a sample.
	warm := func(k int) {
		held := make([]*scoreScratch, k)
		for i := range held {
			held[i] = v.getScratch()
			held[i].res.Layer = held[i].layer
			v.score(net, batch[0], held[i], nil, &held[i].res)
		}
		for _, s := range held {
			v.putScratch(s)
		}
	}
	// scoreFresh scores the batch on a goroutine that has never scored.
	scoreFresh := func(workers int) {
		done := make(chan struct{})
		go func() {
			defer close(done)
			v.ScoreBatchWorkers(net, batch, workers)
		}()
		<-done
	}
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			warm(procs)
			for _, workers := range []int{1, procs} {
				runtime.GC()
				runtime.GC()
				got := bytesAllocated(func() { scoreFresh(workers) })
				t.Logf("workers=%d: a warm %d-image batch after two GCs allocated %d B; one arena is %d B",
					workers, len(batch), got, arena)
				if got >= arena {
					t.Errorf("workers=%d: a warm batch after two GCs allocated %d B, at least one forward arena (%d B)",
						workers, got, arena)
				}
			}
		})
	}
}
