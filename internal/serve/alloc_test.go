package serve

import (
	"bytes"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"deepvalidation"
)

// TestCheckAllocatesLessThanBody is the serving path's byte budget: a
// warm POST /v1/check through the full handler allocates fewer bytes
// than its own body, averaged over many requests. Reading the body into
// a pooled buffer and scoring the decoded pixels in place leave the
// decoded pixels (8 bytes per value, about half the JSON) as the one
// per-image copy; a body buffer allocated per request or a second pixel
// copy before scoring each push the total past the body length.
//
// The image is 28×28 with full-precision pixels, the shape of the
// benchmark's check-direct traffic, so the fixed per-request cost is
// weighed against a realistic body. Like testing.AllocsPerRun, the test
// runs at GOMAXPROCS=1: with more Ps each one may hold its own pooled
// scoring arena, and every GC cycle inside the window rebuilds them all,
// which is arena churn, not the per-request cost pinned here.
func TestCheckAllocatesLessThanBody(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const side = 28
	imgs, labels := bandImages28(rand.New(rand.NewSource(3)), 90, side)
	det, err := deepvalidation.Build(imgs, labels, deepvalidation.BuildConfig{
		Classes: 3, Epochs: 6, Width: 4, FCWidth: 16,
		SVMPerClass: 20, SVMFeatures: 32, Seed: 5, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(deepvalidation.NewHandle(det), Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	h := s.Handler()
	probe, _ := bandImages28(rand.New(rand.NewSource(4)), 1, side)
	body := checkBody(t, probe[0])

	const warm, measured = 50, 300
	reqs := make([]*http.Request, warm+measured)
	recs := make([]*httptest.ResponseRecorder, len(reqs))
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/check", bytes.NewReader(body))
		reqs[i].Header.Set("Content-Type", "application/json")
		recs[i] = httptest.NewRecorder()
		recs[i].Body.Grow(256)
	}
	serveOne := func(i int) {
		h.ServeHTTP(recs[i], reqs[i])
		if recs[i].Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, recs[i].Code, recs[i].Body.String())
		}
	}
	for i := 0; i < warm; i++ {
		serveOne(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := warm; i < len(reqs); i++ {
		serveOne(i)
	}
	runtime.ReadMemStats(&after)
	perReq := float64(after.TotalAlloc-before.TotalAlloc) / measured
	t.Logf("%.0f bytes allocated per request for a %d-byte body", perReq, len(body))
	if perReq >= float64(len(body)) {
		t.Errorf("a warm /v1/check allocates %.0f bytes per request, not less than its %d-byte body", perReq, len(body))
	}
}

// bandImages28 is testImages' band corpus at side×side: class k lights
// the k-th third of the rows.
func bandImages28(rng *rand.Rand, n, side int) ([]deepvalidation.Image, []int) {
	imgs := make([]deepvalidation.Image, n)
	labels := make([]int, n)
	band := side / 3
	for i := range imgs {
		k := rng.Intn(3)
		px := make([]float64, side*side)
		for j := range px {
			px[j] = 0.15 * rng.Float64()
		}
		for y := k * band; y < (k+1)*band; y++ {
			for x := 0; x < side; x++ {
				px[y*side+x] = 0.8 + 0.2*rng.Float64()
			}
		}
		imgs[i] = deepvalidation.Image{Channels: 1, Height: side, Width: side, Pixels: px}
		labels[i] = k
	}
	return imgs, labels
}

// TestCheckBatchDetailedSinksOffAllocs is the tier-1 form of
// TestBenchTraceSnapshot's guard: the call the serving batcher makes
// with every observability sink off, CheckBatchDetailed(imgs, nil),
// may allocate at most 8 more objects per batch than plain CheckBatch.
// Detail fills, span trees and trace IDs all allocate per image, so
// any of them creeping into the disabled path breaks the bound.
func TestCheckBatchDetailedSinksOffAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	det := loadDetector(t)
	imgs, _ := testImages(99, 256)
	checkBatch := func() {
		if _, err := det.CheckBatch(imgs); err != nil {
			t.Fatal(err)
		}
	}
	detailedNil := func() {
		if _, err := det.CheckBatchDetailed(imgs, nil); err != nil {
			t.Fatal(err)
		}
	}
	checkBatch()
	detailedNil()
	base := testing.AllocsPerRun(10, checkBatch)
	instr := testing.AllocsPerRun(10, detailedNil)
	t.Logf("CheckBatch %.0f allocs/op, CheckBatchDetailed(nil) %.0f allocs/op", base, instr)
	if instr > base+8 {
		t.Errorf("sinks-off CheckBatchDetailed allocates %.0f/op vs CheckBatch %.0f/op; tracing work leaked into the disabled path", instr, base)
	}
}
