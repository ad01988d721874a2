package serve

// End-to-end battery for the serving subsystem. TestMain builds one
// tiny detector and saves its artifacts; every test then Loads a fresh
// detector from them (cheap gob decode), so tests never share mutable
// detector state while still paying the training cost once.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"deepvalidation"
	"deepvalidation/internal/core"
	"deepvalidation/internal/telemetry"
)

var (
	testModelPath string
	testValPath   string
	testEps       float64
)

// testImages generates the deterministic 3-class band corpus the
// fixture detector is trained on: 8×8 greyscale images with one bright
// band whose row block encodes the class.
func testImages(seed int64, n int) ([]deepvalidation.Image, []int) {
	rng := rand.New(rand.NewSource(seed))
	imgs := make([]deepvalidation.Image, 0, n)
	labels := make([]int, 0, n)
	for i := 0; i < n; i++ {
		k := rng.Intn(3)
		px := make([]float64, 64)
		for j := range px {
			px[j] = 0.15 * rng.Float64()
		}
		for y := 2 * k; y < 2*k+3; y++ {
			for x := 0; x < 8; x++ {
				px[y*8+x] = 0.8 + 0.2*rng.Float64()
			}
		}
		imgs = append(imgs, deepvalidation.Image{Channels: 1, Height: 8, Width: 8, Pixels: px})
		labels = append(labels, k)
	}
	return imgs, labels
}

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "dv-serve-test-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	imgs, labels := testImages(1, 90)
	det, err := deepvalidation.Build(imgs, labels, deepvalidation.BuildConfig{
		Classes: 3, Epochs: 6, Width: 4, FCWidth: 16,
		SVMPerClass: 30, SVMFeatures: 64, Seed: 5,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "building fixture detector:", err)
		os.Exit(1)
	}
	clean, _ := testImages(2, 60)
	eps, err := det.Calibrate(clean, 0.2)
	if err != nil {
		fmt.Fprintln(os.Stderr, "calibrating fixture detector:", err)
		os.Exit(1)
	}
	testEps = eps
	testModelPath = filepath.Join(dir, "model.gob")
	testValPath = filepath.Join(dir, "validator.gob")
	if err := det.Save(testModelPath, testValPath); err != nil {
		fmt.Fprintln(os.Stderr, "saving fixture detector:", err)
		os.Exit(1)
	}
	// os.Exit skips deferred calls, so the fixture dir is removed here.
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// loadDetector restores a fresh fixture detector with the calibrated ε.
func loadDetector(t testing.TB) *deepvalidation.Detector {
	t.Helper()
	det, err := deepvalidation.Load(testModelPath, testValPath)
	if err != nil {
		t.Fatal(err)
	}
	det.SetEpsilon(testEps)
	return det
}

// newTestServer spins up a Server plus an httptest front end.
func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(deepvalidation.NewHandle(loadDetector(t)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func checkBody(t testing.TB, img deepvalidation.Image) []byte {
	t.Helper()
	b, err := json.Marshal(CheckRequest{Channels: img.Channels, Height: img.Height, Width: img.Width, Pixels: img.Pixels})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func batchBody(t testing.TB, imgs []deepvalidation.Image) []byte {
	t.Helper()
	reqs := make([]CheckRequest, len(imgs))
	for i, img := range imgs {
		reqs[i] = CheckRequest{Channels: img.Channels, Height: img.Height, Width: img.Width, Pixels: img.Pixels}
	}
	b, err := json.Marshal(BatchRequest{Images: reqs})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func post(t testing.TB, url string, body []byte) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(data)
}

// sameVerdict asserts bit-identity between a served verdict and a
// reference Detector.Check verdict.
func sameVerdict(t testing.TB, got VerdictResponse, want deepvalidation.Verdict, ctx string) {
	t.Helper()
	if got.Label != want.Label || got.Valid != want.Valid ||
		math.Float64bits(got.Confidence) != math.Float64bits(want.Confidence) ||
		math.Float64bits(got.Discrepancy) != math.Float64bits(want.Discrepancy) {
		t.Fatalf("%s: served verdict %+v differs from sequential Check %+v", ctx, got, want)
	}
}

// TestCheckEndpoint is the table-driven status-code battery for
// POST /v1/check.
func TestCheckEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatch: 4, MaxBodyBytes: 8 << 10})
	ref := loadDetector(t)
	good, _ := testImages(7, 1)
	wantVerdict, err := ref.Check(good[0])
	if err != nil {
		t.Fatal(err)
	}

	wrongShape := deepvalidation.Image{Channels: 1, Height: 4, Width: 4, Pixels: make([]float64, 16)}
	badCount := deepvalidation.Image{Channels: 1, Height: 8, Width: 8, Pixels: make([]float64, 10)}

	cases := []struct {
		name       string
		method     string
		body       []byte
		wantStatus int
		wantSubstr string
	}{
		{"valid image", http.MethodPost, checkBody(t, good[0]), http.StatusOK, `"valid"`},
		{"malformed JSON", http.MethodPost, []byte(`{"channels":1,`), http.StatusBadRequest, "decoding check request"},
		{"unknown field", http.MethodPost, []byte(`{"channels":1,"height":8,"width":8,"pixels":[],"bogus":1}`), http.StatusBadRequest, "decoding check request"},
		{"trailing garbage", http.MethodPost, append(checkBody(t, good[0]), []byte("{}")...), http.StatusBadRequest, "trailing data"},
		{"trailing ]", http.MethodPost, append(checkBody(t, good[0]), ']'), http.StatusBadRequest, "trailing data"},
		{"trailing }", http.MethodPost, append(checkBody(t, good[0]), '}'), http.StatusBadRequest, "trailing data"},
		{"pixel count mismatch", http.MethodPost, checkBody(t, badCount), http.StatusBadRequest, "pixels"},
		{"wrong image shape", http.MethodPost, checkBody(t, wrongShape), http.StatusBadRequest, "model expects a 1x8x8 image"},
		{"oversized body", http.MethodPost, bytes.Repeat([]byte(" "), 16<<10), http.StatusRequestEntityTooLarge, "exceeds"},
		{"wrong method", http.MethodGet, nil, http.StatusMethodNotAllowed, "use POST"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+"/v1/check", bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			body := string(data)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body %q)", resp.StatusCode, tc.wantStatus, body)
			}
			if !strings.Contains(body, tc.wantSubstr) {
				t.Fatalf("body %q does not contain %q", body, tc.wantSubstr)
			}
			if tc.wantStatus == http.StatusOK {
				var v VerdictResponse
				if err := json.Unmarshal(data, &v); err != nil {
					t.Fatal(err)
				}
				sameVerdict(t, v, wantVerdict, tc.name)
			}
		})
	}
}

// TestBatchEndpoint covers POST /v1/batch: ordering, per-image
// validation errors, and the queue-depth bound on batch size.
func TestBatchEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatch: 8})
	ref := loadDetector(t)
	imgs, _ := testImages(11, 5)

	t.Run("verdicts in input order", func(t *testing.T) {
		resp, body := post(t, ts.URL+"/v1/batch", batchBody(t, imgs))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d (body %q)", resp.StatusCode, body)
		}
		var br BatchResponse
		if err := json.Unmarshal([]byte(body), &br); err != nil {
			t.Fatal(err)
		}
		if len(br.Verdicts) != len(imgs) {
			t.Fatalf("got %d verdicts for %d images", len(br.Verdicts), len(imgs))
		}
		for i, img := range imgs {
			want, err := ref.Check(img)
			if err != nil {
				t.Fatal(err)
			}
			sameVerdict(t, br.Verdicts[i], want, fmt.Sprintf("image %d", i))
		}
	})

	t.Run("empty batch", func(t *testing.T) {
		resp, body := post(t, ts.URL+"/v1/batch", []byte(`{"images":[]}`))
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, "no images") {
			t.Fatalf("status = %d, body %q", resp.StatusCode, body)
		}
	})

	t.Run("trailing brackets", func(t *testing.T) {
		for _, tail := range []string{"]", "}", "}]"} {
			resp, body := post(t, ts.URL+"/v1/batch", append(batchBody(t, imgs), tail...))
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, "trailing data") {
				t.Fatalf("tail %q: status = %d, body %q", tail, resp.StatusCode, body)
			}
		}
	})

	t.Run("bad member image is indexed", func(t *testing.T) {
		bad := append([]deepvalidation.Image{imgs[0]},
			deepvalidation.Image{Channels: 1, Height: 4, Width: 4, Pixels: make([]float64, 16)})
		resp, body := post(t, ts.URL+"/v1/batch", batchBody(t, bad))
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, "image 1") {
			t.Fatalf("status = %d, body %q", resp.StatusCode, body)
		}
	})
}

// TestBatchExceedsQueue asserts the explicit rejection of batches that
// could never be admitted.
func TestBatchExceedsQueue(t *testing.T) {
	_, ts := newTestServer(t, Config{QueueDepth: 2, MaxBatch: 8})
	imgs, _ := testImages(13, 3)
	resp, body := post(t, ts.URL+"/v1/batch", batchBody(t, imgs))
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, "exceeds the admission queue depth") {
		t.Fatalf("status = %d, body %q", resp.StatusCode, body)
	}
}

// waitFor polls cond until it holds, failing after 10s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestQueueFullSheds drives the server into overload deterministically.
// The single worker slot is occupied by the test itself, so request A
// blocks the batcher waiting for a worker, request B fills the depth-1
// admission queue, and request C must shed with 429 + Retry-After —
// never block. Releasing the slot then lets A and B finish with 200.
func TestQueueFullSheds(t *testing.T) {
	reg := telemetry.New()
	s, ts := newTestServer(t, Config{
		QueueDepth: 1, MaxBatch: 1, Workers: 1,
		RequestTimeout: 30 * time.Second,
		Registry:       reg,
	})
	img, _ := testImages(17, 1)
	body := checkBody(t, img[0])

	// Occupy the only worker slot: the batcher will dequeue one request
	// and then block waiting for a worker.
	slot := <-s.slots

	type reply struct {
		status int
		body   string
	}
	async := func() chan reply {
		c := make(chan reply, 1)
		go func() {
			resp, b := post(t, ts.URL+"/v1/check", body)
			c <- reply{resp.StatusCode, b}
		}()
		return c
	}

	// Request A: admitted, dequeued by the batcher, which is now stuck
	// behind the occupied worker slot.
	a := async()
	waitFor(t, "batcher to pull request A", func() bool { return s.pulls.Load() == 1 })
	// Request B: admitted, fills the depth-1 queue.
	b := async()
	waitFor(t, "request B to queue", func() bool { return s.QueueLen() == 1 })
	// Request C: the queue is full — must shed, not block.
	resp, cBody := post(t, ts.URL+"/v1/check", body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload status = %d (body %q), want 429", resp.StatusCode, cBody)
	}
	// The exact header value is a wire contract shared with the gateway
	// passthrough (RetryAfterHeader: whole seconds, rounded up, min 1) —
	// pin it, don't just require presence.
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("429 Retry-After = %q, want %q (RetryAfterHeader of the 1s default)", ra, "1")
	}
	if !strings.Contains(cBody, "queue full") {
		t.Fatalf("429 body %q does not mention the queue", cBody)
	}
	// Release the worker slot: the held requests must now complete.
	s.slots <- slot
	for name, c := range map[string]chan reply{"A": a, "B": b} {
		select {
		case r := <-c:
			if r.status != http.StatusOK {
				t.Fatalf("request %s finished with %d (body %q)", name, r.status, r.body)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("request %s never completed", name)
		}
	}
	if got := reg.Counter(MetricShed).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", MetricShed, got)
	}
}

// TestDeadlineExpiry asserts 504 when the per-request deadline fires
// before a verdict is produced.
func TestDeadlineExpiry(t *testing.T) {
	reg := telemetry.New()
	_, ts := newTestServer(t, Config{RequestTimeout: time.Nanosecond, Registry: reg})
	img, _ := testImages(19, 1)
	resp, body := post(t, ts.URL+"/v1/check", checkBody(t, img[0]))
	if resp.StatusCode != http.StatusGatewayTimeout || !strings.Contains(body, "deadline exceeded") {
		t.Fatalf("status = %d, body %q, want 504", resp.StatusCode, body)
	}
	resp, body = post(t, ts.URL+"/v1/batch", batchBody(t, img))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("batch status = %d, body %q, want 504", resp.StatusCode, body)
	}
	if got := reg.Counter(MetricDeadline).Value(); got < 2 {
		t.Fatalf("%s = %d, want >= 2", MetricDeadline, got)
	}
}

// TestHealthAndReady covers the probe endpoints across the lifecycle.
func TestHealthAndReady(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for path, want := range map[string]string{"/healthz": "ok", "/readyz": "ready"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), want) {
			t.Fatalf("%s = %d %q, want 200 %q", path, resp.StatusCode, data, want)
		}
	}
	s.Close()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(data), "draining") {
		t.Fatalf("draining readyz = %d %q, want 503 draining", resp.StatusCode, data)
	}
	// healthz keeps answering while draining — the process is alive.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("draining healthz = %d, want 200", resp.StatusCode)
	}
}

// TestReload asserts the hot swap: new detector instance, ε carried
// across, verdicts still bit-identical, reload counter bumped.
func TestReload(t *testing.T) {
	reg := telemetry.New()
	cfg := Config{
		Registry: reg,
		Loader: func() (*deepvalidation.Detector, error) {
			return deepvalidation.Load(testModelPath, testValPath)
		},
	}
	s, ts := newTestServer(t, cfg)
	before := s.Detector()

	resp, body := post(t, ts.URL+"/v1/reload", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status = %d (body %q)", resp.StatusCode, body)
	}
	var rr ReloadResponse
	if err := json.Unmarshal([]byte(body), &rr); err != nil {
		t.Fatal(err)
	}
	if !rr.Reloaded || math.Float64bits(rr.Epsilon) != math.Float64bits(testEps) {
		t.Fatalf("reload response %+v, want reloaded with eps %v", rr, testEps)
	}
	if s.Detector() == before {
		t.Fatal("reload did not swap the detector")
	}
	if got := s.Detector().Epsilon(); math.Float64bits(got) != math.Float64bits(testEps) {
		t.Fatalf("reloaded eps = %v, want %v carried across", got, testEps)
	}
	if got := reg.Counter(MetricReload).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", MetricReload, got)
	}

	// The swapped-in detector serves bit-identical verdicts.
	ref := loadDetector(t)
	img, _ := testImages(23, 1)
	want, err := ref.Check(img[0])
	if err != nil {
		t.Fatal(err)
	}
	resp, body = post(t, ts.URL+"/v1/check", checkBody(t, img[0]))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-reload check = %d (body %q)", resp.StatusCode, body)
	}
	var v VerdictResponse
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatal(err)
	}
	sameVerdict(t, v, want, "post-reload")
}

// TestReloadNotConfigured asserts 501 without a loader.
func TestReloadNotConfigured(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/v1/reload", nil)
	if resp.StatusCode != http.StatusNotImplemented || !strings.Contains(body, "not configured") {
		t.Fatalf("status = %d, body %q, want 501", resp.StatusCode, body)
	}
}

// TestReloadFailureKeepsServing asserts a failed reload leaves the old
// detector in place and traffic unaffected.
func TestReloadFailureKeepsServing(t *testing.T) {
	cfg := Config{
		Loader: func() (*deepvalidation.Detector, error) {
			return nil, fmt.Errorf("artifact store unreachable")
		},
	}
	s, ts := newTestServer(t, cfg)
	before := s.Detector()
	resp, body := post(t, ts.URL+"/v1/reload", nil)
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(body, "unreachable") {
		t.Fatalf("status = %d, body %q, want 500", resp.StatusCode, body)
	}
	if s.Detector() != before {
		t.Fatal("failed reload must not swap the detector")
	}
	img, _ := testImages(29, 1)
	resp, _ = post(t, ts.URL+"/v1/check", checkBody(t, img[0]))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("check after failed reload = %d, want 200", resp.StatusCode)
	}
}

// TestDrain covers the SIGTERM path: a request the batcher has pulled
// while its only worker is busy must complete during Drain, and the
// server must refuse new work afterwards. Request A holds the worker
// inside the serve.batch point; request B is pulled and waits for it.
func TestDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxBatch: 8, Workers: 1})
	calls, release := holdFirstBatch(t)
	imgs, _ := testImages(31, 2)
	want := refVerdicts(t, imgs)

	a := checkAsync(ts.URL, imgs[0], want[0])
	waitFor(t, "request A's batch to block in its worker", func() bool { return calls.Load() == 1 })
	b := checkAsync(ts.URL, imgs[1], want[1])
	waitFor(t, "batcher to pull request B", func() bool { return s.pulls.Load() == 2 })
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- s.Drain(ctx, ts.Config)
	}()
	waitFor(t, "drain to begin", func() bool { return !s.Ready() })
	release()
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	for name, c := range map[string]<-chan error{"A": a, "B": b} {
		select {
		case err := <-c:
			if err != nil {
				t.Fatalf("in-flight request %s during drain: %v", name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("in-flight request %s was dropped by drain", name)
		}
	}
	if s.Ready() {
		t.Fatal("server still ready after drain")
	}
}

// TestServeMetrics asserts the serving instruments land in the shared
// registry next to the detector's own series.
func TestServeMetrics(t *testing.T) {
	reg := telemetry.New()
	_, ts := newTestServer(t, Config{MaxBatch: 4, Registry: reg})
	imgs, _ := testImages(37, 3)
	for _, img := range imgs {
		resp, body := post(t, ts.URL+"/v1/check", checkBody(t, img))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("check = %d (body %q)", resp.StatusCode, body)
		}
	}
	if _, body := post(t, ts.URL+"/v1/batch", batchBody(t, imgs)); body == "" {
		t.Fatal("empty batch response")
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"dv_serve_batch_size_bucket",
		`dv_serve_requests_total{endpoint="check"} 3`,
		`dv_serve_requests_total{endpoint="batch"} 1`,
		"dv_serve_queue_depth",
		`dv_serve_request_latency_seconds_bucket{endpoint="check"`,
		core.MetricChecked, // the detector's instruments share the registry
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, text)
		}
	}
	if got := reg.Histogram(MetricBatchSize, nil).Count(); got == 0 {
		t.Fatal("no micro-batches observed")
	}
	if got := reg.Counter(core.MetricChecked).Value(); got < 6 {
		t.Fatalf("detector checked %d verdicts through the server, want >= 6", got)
	}
}
