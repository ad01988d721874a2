package deepvalidation

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"deepvalidation/internal/core"
	"deepvalidation/internal/tensor"
)

// TestCheckBatchAllocatesOnlyVerdicts pins what a warm CheckBatch
// allocates: the []Verdict it returns and, on several workers, the
// fan-out's counter, wait group and one goroutine closure per worker,
// never anything per image. Each worker scores on one scoring state
// (forward arena, tensor header and per-layer row) from the validator's
// free list for the whole batch, and the batch itself is a check state
// from the detector's free list, so a single worker makes no closure
// and the object count must not grow from 32 to 300 images.
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
			budget := float64(n)*float64(unsafe.Sizeof(Verdict{})) + 512
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
