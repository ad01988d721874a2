package gateway

import (
	"bytes"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"deepvalidation"
	"deepvalidation/internal/telemetry"
)

// TestGatewaySinksOffAllocs is the tier-1 form of
// TestBenchGatewayObsSnapshot's guard: a gateway with only a metrics
// registry (every trace, SLO and event sink off) may allocate at most
// 12 more objects per proxied /v1/check than a bare gateway. Metrics
// are atomic counter and histogram math; span assembly, flight records
// or SLO bookkeeping leaking into the disabled path cost far more.
func TestGatewaySinksOffAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	imgs, _ := testImages(7, 1)
	body := string(checkBody(t, imgs[0]))
	allocsPerRequest := func(tune func(*Config)) float64 {
		h := benchGateway(t, tune).Handler()
		oneRequest := func() {
			req := httptest.NewRequest(http.MethodPost, "/v1/check", strings.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("proxied check = %d, want 200: %s", rec.Code, rec.Body.String())
			}
		}
		// Warm the upstream keep-alive connection and the lazy pools.
		for i := 0; i < 20; i++ {
			oneRequest()
		}
		return testing.AllocsPerRun(200, oneRequest)
	}
	bare := allocsPerRequest(nil)
	off := allocsPerRequest(func(c *Config) { c.Registry = telemetry.New() })
	t.Logf("bare %.1f allocs/req, sinks off %.1f allocs/req", bare, off)
	if off > bare+12 {
		t.Errorf("sinks-off gateway allocates %.1f/req vs bare %.1f/req; observability work leaked into the disabled path", off, bare)
	}
}

// TestProxyBatchBytes bounds the bytes the gateway allocates to proxy
// one warm 32-image 28×28 /v1/batch: fewer than an eighth of the body.
// The body is ~485 KB (32 × 784 random pixels at ~19 bytes of JSON
// each), so the bound is ~61 KB. Reading each body into a new buffer costs the
// body plus one byte, and copying it upstream through io.Copy 32 KiB
// more, so a gateway doing either fails. With both recycled, what is
// left is the request, header and reader objects of the two HTTP
// exchanges (the in-process replica's share included), a few KiB.
func TestProxyBatchBytes(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rng := rand.New(rand.NewSource(1))
	imgs := make([]deepvalidation.Image, 32)
	for i := range imgs {
		px := make([]float64, 28*28)
		for j := range px {
			px[j] = rng.Float64()
		}
		imgs[i] = deepvalidation.Image{Channels: 1, Height: 28, Width: 28, Pixels: px}
	}
	body := gwBatchBody(t, imgs)
	h := benchGateway(t, nil).Handler()
	oneRequest := func() {
		req, err := http.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("proxied batch = %d, want 200: %s", rec.Code, rec.Body.String())
		}
	}
	// Warm the keep-alive connection, its copy buffer and the free lists.
	for range 20 {
		oneRequest()
	}
	const n = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		oneRequest()
	}
	runtime.ReadMemStats(&after)
	perRequest := (after.TotalAlloc - before.TotalAlloc) / n
	limit := uint64(len(body) / 8)
	t.Logf("%d-byte body: %d bytes allocated per request (limit %d)", len(body), perRequest, limit)
	if perRequest >= limit {
		t.Errorf("proxying a %d-byte batch allocates %d bytes per request, want < %d", len(body), perRequest, limit)
	}
}
