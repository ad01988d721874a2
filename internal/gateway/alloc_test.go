package gateway

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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
