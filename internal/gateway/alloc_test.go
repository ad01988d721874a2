package gateway

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"deepvalidation"
	"deepvalidation/internal/serve"
	"deepvalidation/internal/telemetry"
)

// benchGateway builds a gateway over one fake fast replica (an
// in-process httptest handler that drains the body and answers
// instantly, with dvserve's Content-Type) so the measured per-request
// cost is the gateway's own proxy path, not detector work.
func benchGateway(t *testing.T, tune func(*Config)) *Gateway {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		echoReplica("a")(w, r)
	}))
	t.Cleanup(ts.Close)
	cfg := Config{
		Replicas:      []ReplicaSpec{{Name: "a", Addr: strings.TrimPrefix(ts.URL, "http://")}},
		ProbeInterval: -1,
	}
	if tune != nil {
		tune(&cfg)
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

// proxiedCheckAllocs is the heap objects one warm proxied /v1/check
// makes, through a gateway over one fake fast replica.
func proxiedCheckAllocs(t *testing.T, tune func(*Config)) float64 {
	t.Helper()
	imgs, _ := testImages(7, 1)
	body := string(checkBody(t, imgs[0]))
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

// TestGatewaySinksOffAllocs: a gateway with only a metrics registry
// (every trace, SLO and event sink off) may allocate at most 12 more
// objects per proxied /v1/check than a bare gateway. Metrics
// are atomic counter and histogram math; span assembly, flight records
// or SLO bookkeeping leaking into the disabled path cost far more.
func TestGatewaySinksOffAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	bare := proxiedCheckAllocs(t, nil)
	off := proxiedCheckAllocs(t, func(c *Config) { c.Registry = telemetry.New() })
	t.Logf("bare %.1f allocs/req, sinks off %.1f allocs/req", bare, off)
	if off > bare+12 {
		t.Errorf("sinks-off gateway allocates %.1f/req vs bare %.1f/req; observability work leaked into the disabled path", off, bare)
	}
}

// TestProxyCheckObjects: a warm proxied /v1/check makes at most 102
// heap objects, the test's request and recorder and the fake replica's
// side included (100 measured). Past net/http's own objects — the two
// exchanges' requests, headers, readers and contexts — the gateway makes
// three: the route's deadline context, the request's GetBody (bound to
// its record's generation) and the hop's body reader. A header map or
// header value per forward or per relayed answer, a hash state, a
// response struct, a GetBody per hop or a copied client each add one;
// an http.Client round trip adds its redirect header copy, and any
// three of these break the bound.
func TestProxyCheckObjects(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	objs := proxiedCheckAllocs(t, nil)
	t.Logf("%.1f objects per proxied check", objs)
	if objs > 102 {
		t.Errorf("a warm proxied /v1/check makes %.1f heap objects, budget 102", objs)
	}
}

// TestProxyBatchBytes bounds the bytes allocated to proxy one warm
// 32-image 28×28 /v1/batch (a ~485 KB body: 32 × 784 random pixels at
// ~19 bytes of JSON each) under 9,000, the in-process replica's share
// included (8,448 measured). Reading each body into a new buffer costs
// the body plus one byte, and copying it upstream through io.Copy
// 32 KiB more; with both recycled, what is left is the request, header
// and reader objects of the two HTTP exchanges. A per-forward header
// map, an http.Client round trip's header copy, or a compressing
// transport's Accept-Encoding header each cost a few hundred bytes, and
// together break the bound.
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
	// Warm the keep-alive connection, its copy buffer and the record list.
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
	const limit = 9000
	t.Logf("%d-byte body: %d bytes allocated per request (limit %d)", len(body), perRequest, limit)
	if perRequest >= limit {
		t.Errorf("proxying a %d-byte batch allocates %d bytes per request, want < %d", len(body), perRequest, limit)
	}
}

// TestProbeAllBytes bounds what one warm health probe of a replica
// allocates under 7,000 bytes, the httptest replica's side of the
// exchange included (6,370 measured; 8,850 with a client copy per
// probe): a probe reads /readyz into its replica's buffer and parses
// the JSON tail in place, under a deadline on the request's context. A
// copied http.Client with its Timeout machinery, a body read into a
// fresh buffer, or a split of the body into lines and a copy of the
// last, each cost more than the margin.
func TestProbeAllBytes(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sha := strings.Repeat("ab", 32)
	tail, err := json.Marshal(serve.ReadyzBody{Status: "ready", ModelSHA256: sha, ValidatorSHA256: sha})
	if err != nil {
		t.Fatal(err)
	}
	readyz := "ready\ndrift: disabled\nslo: disabled\n" + string(tail) + "\n"
	replica := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, readyz)
	}
	g, reg := fakeFleet(t, map[string]http.HandlerFunc{"a": replica, "b": replica}, nil)
	for range 20 {
		g.ProbeAll()
	}
	const n = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		g.ProbeAll()
	}
	runtime.ReadMemStats(&after)
	if fails := counterValue(t, reg, telemetry.Label(MetricProbes, "result", "fail")); fails != 0 {
		t.Fatalf("%d probes failed", fails)
	}
	if sha := g.replicas[0].validatorSHA(); sha != strings.Repeat("ab", 32) {
		t.Fatalf("probe recorded validator SHA %q", sha)
	}
	perProbe := (after.TotalAlloc - before.TotalAlloc) / (n * 2)
	t.Logf("%d bytes allocated per probe", perProbe)
	const budget = 7000
	if perProbe >= budget {
		t.Errorf("one warm probe allocates %d bytes, budget %d", perProbe, budget)
	}
}
