package serve

import (
	"bytes"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"deepvalidation"
)

// The serving path's byte budgets: warm requests through the full
// handler, at GOMAXPROCS=1 like testing.AllocsPerRun. With more Ps each
// one may hold its own pooled scoring arena, and every GC cycle inside
// the window rebuilds them all, which is arena churn, not the
// per-request cost pinned here. The images are 28×28 with
// full-precision pixels, the shape of the benchmark's check-direct and
// batch-fleet traffic, so the fixed per-request cost is weighed against
// realistic bodies. Each budget sits below what one more copy of an
// image's decoded pixels (c·h·w·8 = 6,272 bytes) would add.

// TestCheckAllocatesLessThanBody: a warm POST /v1/check allocates fewer
// bytes than its own body. A body buffer allocated per request, or a
// second pixel copy before scoring, pushes the total past the body
// length.
func TestCheckAllocatesLessThanBody(t *testing.T) {
	perReq, body := warmAllocs(t, "/v1/check", 1)
	if perReq >= float64(body) {
		t.Errorf("a warm /v1/check allocates %.0f bytes per request, not less than its %d-byte body", perReq, body)
	}
}

// TestCheckAllocatesLessThanImage: a warm POST /v1/check allocates less
// than one decoded image, so the pixels must come from the server's
// free list rather than a new slice per request.
func TestCheckAllocatesLessThanImage(t *testing.T) {
	perReq, _ := warmAllocs(t, "/v1/check", 1)
	if image := 28 * 28 * 8; perReq >= float64(image) {
		t.Errorf("a warm /v1/check allocates %.0f bytes per request, not less than one %d-byte decoded image", perReq, image)
	}
}

// TestBatchAllocatesLessThanImageShare: a warm 32-image POST /v1/batch
// allocates less than half a decoded image per image. The body is
// decoded from the connection through a pooled 64 KiB window and the
// pixels come from the server's free list, so a buffer holding the
// whole ~500 KB body (15.5 KB per image) or a new pixel slice per image
// breaks the budget.
func TestBatchAllocatesLessThanImageShare(t *testing.T) {
	const n = 32
	perReq, _ := warmAllocs(t, "/v1/batch", n)
	if perImage, budget := perReq/n, float64(28*28*8/2); perImage >= budget {
		t.Errorf("a warm %d-image /v1/batch allocates %.0f bytes per image, budget %.0f (half a decoded image)", n, perImage, budget)
	}
}

// allocDetector is the budget tests' 28×28 detector, built once.
var allocDetector = sync.OnceValues(func() (*deepvalidation.Detector, error) {
	imgs, labels := bandImages28(rand.New(rand.NewSource(3)), 90, 28)
	return deepvalidation.Build(imgs, labels, deepvalidation.BuildConfig{
		Classes: 3, Epochs: 6, Width: 4, FCWidth: 16,
		SVMPerClass: 20, SVMFeatures: 32, Seed: 5, Workers: 1,
	})
})

// warmAllocs serves warm requests of n 28×28 images each (a check body
// for n == 1 on /v1/check, a batch body otherwise) through a fresh
// server's handler and returns the bytes allocated per request,
// averaged over the measured requests, and the body length.
func warmAllocs(t *testing.T, path string, n int) (perReq float64, bodyLen int) {
	if raceDetectorEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	det, err := allocDetector()
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(deepvalidation.NewHandle(det), Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	h := s.Handler()
	probe, _ := bandImages28(rand.New(rand.NewSource(4)), n, 28)
	body := batchBody(t, probe)
	if path == "/v1/check" {
		body = checkBody(t, probe[0])
	}

	warm, measured := 50, 300
	if n > 1 {
		warm, measured = 5, 30
	}
	reqs := make([]*http.Request, warm+measured)
	recs := make([]*httptest.ResponseRecorder, len(reqs))
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		reqs[i].Header.Set("Content-Type", "application/json")
		recs[i] = httptest.NewRecorder()
		recs[i].Body.Grow(256 * n)
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
	perReq = float64(after.TotalAlloc-before.TotalAlloc) / float64(measured)
	t.Logf("%s: %.0f bytes allocated per request of %d images (%.0f per image) for a %d-byte body",
		path, perReq, n, perReq/float64(n), len(body))
	return perReq, len(body)
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

// TestCheckBatchDetailedSinksOffAllocs: the call the serving batcher
// makes with every observability sink off, CheckBatchDetailed(imgs,
// nil), may allocate at most 8 more objects per batch than plain
// CheckBatch.
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
