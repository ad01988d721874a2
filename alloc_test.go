package deepvalidation

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"deepvalidation/internal/core"
	"deepvalidation/internal/nn"
	"deepvalidation/internal/tensor"
)

// TestCheckBatchAllocatesOnlyVerdicts pins what a warm CheckBatch
// allocates: the []Verdict it returns and, on several workers, the
// fan-out's counter, wait group and one goroutine closure per worker,
// never anything per image. Each worker scores on one scoring state
// (forward arena, tensor header and per-layer row) from the validator's
// free list for the whole batch, and the batch itself is a check state
// from the detector's free list, so a single worker makes no closure
// and the object count must not grow from 32 to 300 images. The byte
// budget is the verdict slice at its size class plus 384 B for the
// fan-out.
//
// How many states a call takes depends on the scheduler: a worker
// takes one only once it runs, so the list grows to as many workers as
// have ever overlapped. The test therefore warms the list with
// primeArenas, and, like testing.AllocsPerRun, measures at
// GOMAXPROCS=1 (two workers still run as two goroutines; the list
// keeps 2 × GOMAXPROCS states).
func TestCheckBatchAllocatesOnlyVerdicts(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	det, err := Load(goldenModelContainer, goldenValContainer)
	if err != nil {
		t.Fatal(err)
	}
	imgs, _ := benchBandImages(rand.New(rand.NewSource(19)), 300)
	const runs = 20
	for _, workers := range []int{1, 2} {
		det.SetWorkers(workers)
		for _, n := range []int{32, 300} {
			batch := imgs[:n]
			check := func() {
				if _, err := det.CheckBatch(batch); err != nil {
					t.Fatal(err)
				}
			}
			primeArenas(det, batch, workers)
			check()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				check()
			}
			runtime.ReadMemStats(&after)
			objs := float64(after.Mallocs-before.Mallocs) / runs
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
			budget := verdictSliceBytes(n) + 384
			objBudget := 1.0 // the verdicts
			if workers > 1 {
				objBudget += float64(2 + workers)
			}
			t.Logf("workers=%d n=%d: %.1f objects, %.0f bytes per call (budget %.0f, %.0f)", workers, n, objs, bytes, objBudget, budget)
			if objs > objBudget+0.5 {
				t.Errorf("workers=%d n=%d: CheckBatch allocates %.1f objects per call, budget %.0f", workers, n, objs, objBudget)
			}
			if bytes > budget {
				t.Errorf("workers=%d n=%d: CheckBatch allocates %.0f bytes per call, budget %.0f", workers, n, bytes, budget)
			}
		}
	}
}

// verdictSink keeps verdictSliceBytes' slice on the heap.
var verdictSink []Verdict

// verdictSliceBytes returns what the runtime allocates for a []Verdict
// of n elements — n × Sizeof(Verdict) rounded up to its size class —
// measured by allocating one. The class depends on the word size: 300
// verdicts are 9,600 B in a 9,728 B class on 64-bit targets and 7,200
// B in an 8,192 B class on 32-bit ones.
func verdictSliceBytes(n int) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	verdictSink = make([]Verdict, n)
	runtime.ReadMemStats(&after)
	verdictSink = nil
	return float64(after.TotalAlloc - before.TotalAlloc)
}

// primeArenas scores one batch whose workers each hold their first
// image until all of them have started, so the validator's free list
// ends up holding one scoring state per worker. A plain warm-up call cannot
// promise that: if the first worker finishes the batch before the
// second is scheduled, the second never takes an arena. imgs must hold
// at least workers images.
func primeArenas(det *Detector, imgs []Image, workers int) {
	var started sync.WaitGroup
	started.Add(workers)
	st := &checkState{imgs: imgs}
	det.val.ScoreEach(det.net, len(imgs), workers, core.Funcs{In: func(i int, hdr *tensor.Tensor) *tensor.Tensor {
		// A worker blocked here holds sample i, so the first `workers`
		// samples go to distinct workers.
		if i < workers {
			started.Done()
			started.Wait()
		}
		return st.Input(i, hdr)
	}, Out: func(int, *core.Result) {}}, nil)
}

// TestLoadAllocatesAsSequential: Load's second goroutine adds no copy of
// either artifact. A warm Load of the golden container pair allocates
// no more than loading the model, then the validator, on one goroutine
// (and cross-checking and assembling them as Load does), plus 1 KiB for
// the goroutine's closure and the channel that joins it. It measures at
// GOMAXPROCS=1, so the goroutine's descriptor is reused from one call to
// the next: on several Ps it may exit on a P other than the one that
// starts the next, and the runtime then allocates a fresh descriptor
// until its free lists settle.
func TestLoadAllocatesAsSequential(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sequential := func() {
		net, _, err := nn.LoadInfo(goldenModelContainer)
		if err != nil {
			t.Fatal(err)
		}
		val, _, err := core.LoadValidatorInfo(goldenValContainer)
		if err != nil {
			t.Fatal(err)
		}
		if err := core.CheckCompat(net, val); err != nil {
			t.Fatal(err)
		}
		assemble(net, val)
	}
	pair := func() {
		if _, err := Load(goldenModelContainer, goldenValContainer); err != nil {
			t.Fatal(err)
		}
	}
	seq, got := bytesPerCall(sequential), bytesPerCall(pair)
	t.Logf("sequential %.0f B, Load %.0f B per call", seq, got)
	if got > seq+1024 {
		t.Errorf("Load allocates %.0f B per call, more than the sequential %.0f B + 1 KiB", got, seq)
	}
}

// bytesPerCall returns the heap bytes one warm call of f allocates,
// averaged over 10 calls.
func bytesPerCall(f func()) float64 {
	const runs = 10
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs
}
