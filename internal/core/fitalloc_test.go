package core

import (
	"runtime"
	"testing"
	"unsafe"

	"deepvalidation/internal/nn"
	"deepvalidation/internal/svm"
)

// TestFitAllocatesWhatItKeeps is Fit's byte budget. Like the serving
// budgets it runs at GOMAXPROCS=1 and is skipped under -race. A warm Fit
// of the determinism fixture must allocate less than the sum of what it
// has to. The fixture keeps all 400 images; its 6 layers reduce to
// 64+64+32+32+24+24 = 240 features; 10 classes × 25 samples feed each
// of the 60 SVMs, which keep 294 support vectors in all.
//
//	kept × feature row   400 × 240 floats × 8 B       =   768,000 B
//	block rounding       the rows of one run of 64
//	                     samples share a block; the 6
//	                     full blocks (122,880 B) are
//	                     whole pages, the last run's
//	                     16 rows (30,720 B) round up to
//	                     the 32 KiB size class         =     2,048 B
//	returned model       per SVM the struct, and per support vector
//	                     its row header, Dim floats and α
//	                                                  ≈   114,300 B
//	slack                                             =    98,304 B
//
// The block term is measured below, as each run's block size class
// less the exact rows; a sample dropped after its run's first kept one
// would add its unused row to it (this fixture drops none). The
// collection workers' forward arenas (327,488 B each) are not in the
// budget: the network has fitted before, so its free list hands them
// out and Fit builds none. At Workers 1 and 2 that is 982,672 B against
// about 926,100 and 927,200 measured. The slack covers what is not
// kept: the drift snapshot's buffers (~17 KB), the kept and per-class
// index slices and the class subsamples (~9 KB), one solver workspace
// per worker (25 × 25 × 8 B + α and gradient ≈ 6 KB) and the
// per-layer bookkeeping. A heap object per kept row instead costs
// 400 × (2,048 B size class − 1,920 B + 6 × 24 B of per-layer row
// headers) = 108,800 B; solving each (layer, class) SVM on its own
// l×l matrix costs 60 × (25 rows of 208 B + their headers) ≈ 350 KB
// per Fit; a second copy of the support vectors costs
// 8 B × Σ nsv·Dim = 96,512 B; building one arena per worker per Fit
// costs 327,488 B each. Any one breaks the budget.
func TestFitAllocatesWhatItKeeps(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	net, xs, ys := trainedDigitsModel(t)
	const slack = 96 << 10

	kept, sc := 0, nn.NewScratch()
	for i, x := range xs {
		if probs, _ := net.ForwardTappedScratch(x, sc); probs.ArgMax() == ys[i] {
			kept++
		}
	}
	for _, workers := range []int{1, 2} {
		cfg := Config{Nu: 0.1, MaxPerClass: 25, MaxFeatures: 64, Workers: workers}
		if _, err := Fit(net, xs, ys, cfg); err != nil { // warm
			t.Fatal(err)
		}
		var v *Validator
		got := bytesAllocated(func() {
			var err error
			if v, err = Fit(net, xs, ys, cfg); err != nil {
				t.Fatal(err)
			}
		})

		dims := 0
		for _, row := range v.SVMs {
			dims += row[0].Dim
		}
		rows := kept * dims * 8
		blocks := 0
		for lo := 0; lo < len(xs); lo += featureBlock {
			n := min(featureBlock, len(xs)-lo) * dims
			blocks += bytesAllocated(func() { rowSink = make([]float64, n) })
		}
		rounding := blocks - rows
		model := modelBytes(v)
		budget := rows + rounding + model + slack
		t.Logf("workers=%d: Fit allocated %d B; budget %d = rows %d + block rounding %d + model %d + slack %d",
			workers, got, budget, rows, rounding, model, slack)
		if got >= budget {
			t.Errorf("workers=%d: a warm Fit allocates %d B, budget %d (rows %d + block rounding %d + model %d + slack %d)",
				workers, got, budget, rows, rounding, model, slack)
		}
	}
}

var rowSink []float64

// modelBytes is the heap the fitted SVMs and the drift reference hold.
func modelBytes(v *Validator) int {
	const word, header = 8, int(unsafe.Sizeof([]float64(nil)))
	n := 0
	for _, row := range v.SVMs {
		for _, m := range row {
			nsv := len(m.Support)
			n += int(unsafe.Sizeof(svm.OneClass{})) + nsv*(header+word*m.Dim+word)
		}
	}
	for _, q := range v.DriftQuantiles {
		n += word * len(q)
	}
	return n
}

// bytesAllocated returns the heap bytes one call of fn allocates.
func bytesAllocated(fn func()) int {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return int(after.TotalAlloc - before.TotalAlloc)
}
