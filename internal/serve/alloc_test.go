package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"deepvalidation"
	"deepvalidation/internal/faultinject"
)

// The serving path's byte budgets: warm requests through the full
// handler, at GOMAXPROCS=1 like testing.AllocsPerRun, so no other
// goroutine allocates inside the window. The images are 28×28 with
// full-precision pixels, the shape of the benchmark's check-direct and
// batch-fleet traffic, so the fixed per-request cost is weighed against
// realistic bodies. Each budget sits below what one more copy of an
// image's decoded pixels (c·h·w·8 = 6,272 bytes) would add.

// TestCheckAllocatesLessThanBody: a warm POST /v1/check allocates fewer
// bytes than its own body. A body buffer allocated per request, or a
// second pixel copy before scoring, pushes the total past the body
// length.
func TestCheckAllocatesLessThanBody(t *testing.T) {
	perReq, _, body := warmAllocs(t, "/v1/check", 1, 1)
	if perReq >= float64(body) {
		t.Errorf("a warm /v1/check allocates %.0f bytes per request, not less than its %d-byte body", perReq, body)
	}
}

// TestCheckAllocatesLessThanImage: a warm POST /v1/check allocates less
// than one decoded image, so the pixels must come from the server's
// free list rather than a new slice per request.
func TestCheckAllocatesLessThanImage(t *testing.T) {
	perReq, _, _ := warmAllocs(t, "/v1/check", 1, 1)
	if image := 28 * 28 * 8; perReq >= float64(image) {
		t.Errorf("a warm /v1/check allocates %.0f bytes per request, not less than one %d-byte decoded image", perReq, image)
	}
}

// TestBatchAllocatesLessThanImageShare: a warm 32-image POST /v1/batch
// allocates under 64 bytes per image (832 B per request measured, 26
// per image, all of it net/http's and the test recorder's). The body
// is decoded from the connection through a 64 KiB window from a free
// list, the pixels come from the server's free list, and each verdict's
// per-layer row (48 bytes at this detector's six layers) is written
// into storage its request record keeps and copied into storage the
// flight recorder's slot keeps, so one row allocated per image, let
// alone a buffer holding the whole ~500 KB body (15.5 KB per image) or
// a new pixel slice per image, breaks the budget.
func TestBatchAllocatesLessThanImageShare(t *testing.T) {
	const n = 32
	perReq, _, _ := warmAllocs(t, "/v1/batch", n, 1)
	if perImage, budget := perReq/n, 64.0; perImage >= budget {
		t.Errorf("a warm %d-image /v1/batch allocates %.0f bytes per image, budget %.0f", n, perImage, budget)
	}
}

// TestBatchAllocatesObjectsPerRequest: a warm 32-image POST /v1/batch
// makes at most 2 more heap objects than a warm /v1/check (none more
// measured). The image and explain slices, the members with their
// per-layer rows, await's early-arrival buffers and the response all
// live in the request record, so nothing grows with the image count; a
// pending, row, channel, Detail or verdict allocated per image breaks
// the bound many times over.
func TestBatchAllocatesObjectsPerRequest(t *testing.T) {
	const n = 32
	_, check, _ := warmAllocs(t, "/v1/check", 1, 1)
	_, batch, _ := warmAllocs(t, "/v1/batch", n, 1)
	if extra, budget := batch-check, 2.0; extra > budget {
		t.Errorf("a warm %d-image /v1/batch makes %.1f heap objects, %.1f more than a /v1/check's %.1f; budget %.0f",
			n, batch, extra, check, budget)
	}
}

// TestBatchAllocatesAtTwoProcs: at GOMAXPROCS 2, where the detector
// fans each micro-batch across two scoring goroutines as the
// benchmark's replicas do, a warm 32-image POST /v1/batch allocates
// under 64 bytes per image and makes at most 8 more heap objects than a
// warm /v1/check (1,048 bytes and 4 more objects measured: the fan-out's
// counter, wait group and two goroutine closures). 8 leaves room for a
// request the batcher splits into two micro-batches; a per-image
// object breaks the bound.
func TestBatchAllocatesAtTwoProcs(t *testing.T) {
	const n = 32
	_, check, _ := warmAllocs(t, "/v1/check", 1, 2)
	perReq, batch, _ := warmAllocs(t, "/v1/batch", n, 2)
	if perImage, budget := perReq/n, 64.0; perImage >= budget {
		t.Errorf("at GOMAXPROCS 2 a warm %d-image /v1/batch allocates %.0f bytes per image, budget %.0f", n, perImage, budget)
	}
	if extra, budget := batch-check, 8.0; extra > budget {
		t.Errorf("at GOMAXPROCS 2 a warm %d-image /v1/batch makes %.1f heap objects, %.1f more than a /v1/check's %.1f; budget %.0f",
			n, batch, extra, check, budget)
	}
}

// TestCheckAllocatesObjects: a warm POST /v1/check makes at most 7 heap
// objects and allocates under 1,000 bytes (5.0 objects and 832 bytes
// measured). What is left belongs to net/http and the test's recorder
// (the body limit reader, the header snapshot and the header map
// obs.WriteJSON sets the shared Content-Type value in) and the JSON
// encoder. The detector scores on a state from its free list with no
// closure, writes the row into the request record's storage, and the
// handler answers from the record. A Content-Type value, a context or
// timer or member slab or result channel per request, a boxed verdict,
// a row copy, or a closure, Detail slab, verdict slice or goroutine per
// batch each add an object; any three of them break the bound.
func TestCheckAllocatesObjects(t *testing.T) {
	perReq, objs, _ := warmAllocs(t, "/v1/check", 1, 1)
	if objs > 7 || perReq >= 1000 {
		t.Errorf("a warm /v1/check makes %.2f heap objects and %.0f bytes per request; budget at most 7 objects and under 1000 bytes", objs, perReq)
	}
}

// TestOverlappingBatchesReusePixels: on a Workers: 2 server, two
// 32-image POST /v1/batch requests in flight at once hold 64 decoded
// pixel slices, one full micro-batch per worker, and the free list
// keeps all of them. Request A's first micro-batch is held in the
// serve.batch point until request B has been decoded and queued, so
// B decodes while all of A's pixels are out. A warm overlapping pair
// allocates under 96 B per image (38 measured); a list of only
// MaxBatch slices makes B's decode allocate 32 new slices, half a
// decoded image (3,136 B) per image of the pair, and a scoring state
// built in the measured pairs adds ~500 B per image. Every verdict must
// equal Detector.Check's; that part also runs under -race, where the
// byte budget is skipped like the others.
func TestOverlappingBatchesReusePixels(t *testing.T) {
	const n = 32
	if !raceDetectorEnabled {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	det, err := allocDetector()
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(deepvalidation.NewHandle(det), Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	h := s.Handler()

	// The next micro-batch to reach the point after hold is set waits
	// until hold's channel closes. While gate is set, every micro-batch
	// reaching the point counts itself in arrived and waits until gate's
	// channel closes.
	var hold, gate atomic.Pointer[chan struct{}]
	var arrived atomic.Int32
	t.Cleanup(faultinject.Reset)
	faultinject.Arm(faultinject.PointServeBatch, func() error {
		if c := gate.Load(); c != nil {
			arrived.Add(1)
			<-*c
		}
		if c := hold.Swap(nil); c != nil {
			<-*c
		}
		return nil
	})

	var probes [2][]deepvalidation.Image
	var bodies [2][]byte
	var want [2][]deepvalidation.Verdict
	for k := range probes {
		probes[k], _ = bandImages28(rand.New(rand.NewSource(int64(4+k))), n, 28)
		bodies[k] = batchBody(t, probes[k])
		for _, img := range probes[k] {
			v, err := det.Check(img)
			if err != nil {
				t.Fatal(err)
			}
			want[k] = append(want[k], v)
		}
	}

	warm, measured := 3, 10
	if raceDetectorEnabled {
		warm, measured = 1, 2
	}
	pairs := warm + measured
	reqs := make([][2]*http.Request, pairs)
	recs := make([][2]*httptest.ResponseRecorder, pairs)
	for i := range reqs {
		for k := range reqs[i] {
			reqs[i][k] = httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(bodies[k]))
			reqs[i][k].Header.Set("Content-Type", "application/json")
			recs[i][k] = httptest.NewRecorder()
			recs[i][k].Body.Grow(256 * n)
		}
	}
	served := make(chan struct{}, 2)
	serve := func(i, k int) {
		h.ServeHTTP(recs[i][k], reqs[i][k])
		served <- struct{}{}
	}
	overlap := func(i int) {
		held := make(chan struct{})
		release := sync.OnceFunc(func() { close(held) })
		defer release()
		base := s.pulls.Load()
		hold.Store(&held)
		go serve(i, 0)
		waitFor(t, "request A's first batch to block in its worker", func() bool { return hold.Load() == nil })
		go serve(i, 1)
		waitFor(t, "request B decoded and queued", func() bool {
			return s.pulls.Load()+int64(s.QueueLen()) == base+2*n
		})
		release()
		<-served
		<-served
	}
	// bothAtOnce holds both requests of pair i at the batch point until
	// both dispatch workers have one, then releases them together on two
	// Ps, so the workers score at once and the detector's free lists end
	// up holding a scoring state (arena included) for each. Warmed by
	// overlap alone, the second worker's state was built only when a
	// preemption happened to overlap the two scores, sometimes first
	// inside the measured pairs (552 B per image instead of 38).
	bothAtOnce := func(i int) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
		open := make(chan struct{})
		arrived.Store(0)
		gate.Store(&open)
		go serve(i, 0)
		waitFor(t, "request A's batch at the batch point", func() bool { return arrived.Load() == 1 })
		go serve(i, 1)
		waitFor(t, "request B's batch at the batch point", func() bool { return arrived.Load() == 2 })
		gate.Store(nil)
		close(open)
		<-served
		<-served
	}
	for i := 0; i < warm; i++ {
		bothAtOnce(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := warm; i < pairs; i++ {
		overlap(i)
	}
	runtime.ReadMemStats(&after)

	for i := range recs {
		for k, rec := range recs[i] {
			if rec.Code != http.StatusOK {
				t.Fatalf("pair %d request %d: status %d: %s", i, k, rec.Code, rec.Body.String())
			}
			var got BatchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
				t.Fatal(err)
			}
			if len(got.Verdicts) != n {
				t.Fatalf("pair %d request %d: %d verdicts, want %d", i, k, len(got.Verdicts), n)
			}
			for j, v := range got.Verdicts {
				if err := equalVerdict(v, want[k][j]); err != nil {
					t.Fatal(fmt.Errorf("pair %d request %d image %d: %w", i, k, j, err))
				}
			}
		}
	}
	if raceDetectorEnabled {
		return
	}
	perImage := float64(after.TotalAlloc-before.TotalAlloc) / float64(measured*2*n)
	t.Logf("overlapping %d-image batches: %.0f bytes allocated per image", n, perImage)
	const budget = 96
	if perImage >= budget {
		t.Errorf("overlapping %d-image /v1/batch pairs allocate %.0f bytes per image, budget %d", n, perImage, budget)
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
// server's handler at GOMAXPROCS procs and returns the bytes allocated
// per request and heap objects made per request, averaged over the
// measured requests, and the body length. The warm-up files at least
// 256 verdicts, so every slot of the flight recorder has made the
// storage it keeps its entry's row in before the measurement starts.
func warmAllocs(t *testing.T, path string, n, procs int) (perReq, objsPerReq float64, bodyLen int) {
	if raceDetectorEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	det, err := allocDetector()
	if err != nil {
		t.Fatal(err)
	}
	// Score on GOMAXPROCS workers, as dvserve's detector does by default.
	det.SetWorkers(0)
	defer det.SetWorkers(1)
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

	warm, measured := 300, 300
	if n > 1 {
		warm, measured = 10, 30
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
	objsPerReq = float64(after.Mallocs-before.Mallocs) / float64(measured)
	t.Logf("%s: %.0f bytes in %.1f objects allocated per request of %d images (%.0f bytes per image) for a %d-byte body",
		path, perReq, objsPerReq, n, perReq/float64(n), len(body))
	return perReq, objsPerReq, len(body)
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
// makes with every observability sink off, CheckBatchDetailed(nil,
// imgs, nil), allocates no more objects per batch than plain
// CheckBatch (1 each measured: the returned verdicts).
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
		if _, err := det.CheckBatchDetailed(nil, imgs, nil); err != nil {
			t.Fatal(err)
		}
	}
	checkBatch()
	detailedNil()
	base := testing.AllocsPerRun(10, checkBatch)
	instr := testing.AllocsPerRun(10, detailedNil)
	t.Logf("CheckBatch %.0f allocs/op, CheckBatchDetailed(nil) %.0f allocs/op", base, instr)
	if instr > base {
		t.Errorf("sinks-off CheckBatchDetailed allocates %.0f/op vs CheckBatch %.0f/op; tracing work leaked into the disabled path", instr, base)
	}
}
