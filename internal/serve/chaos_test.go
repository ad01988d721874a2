package serve

// Chaos battery for the serving subsystem: reload under artifact
// corruption, degradation and recovery of /readyz, retrying reloads
// with backoff, geometry-change rejection, and the batch fallback
// path under fault injection. Throughout, the invariant is the one
// the paper's fail-safe deployment needs: no matter what happens to
// the artifacts on disk, the last good detector keeps answering with
// bit-identical verdicts.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deepvalidation"
	"deepvalidation/internal/faultinject"
	"deepvalidation/internal/telemetry"
)

// copyFile clones a fixture artifact into a writable location.
func copyFile(t testing.TB, src, dst string) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestReloadUnderCorruption is the headline chaos scenario: the
// validator artifact rots on disk, reloads fail until the server
// degrades, verdicts stay bit-identical throughout, and restoring the
// artifact heals everything.
func TestReloadUnderCorruption(t *testing.T) {
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.gob")
	valPath := filepath.Join(dir, "validator.gob")
	copyFile(t, testModelPath, modelPath)
	copyFile(t, testValPath, valPath)

	reg := telemetry.New()
	s, ts := newTestServer(t, Config{
		Registry: reg,
		Loader: func() (*deepvalidation.Detector, error) {
			return deepvalidation.Load(modelPath, valPath)
		},
		ReloadMaxFailures: 3,
	})

	img, _ := testImages(41, 1)
	ref := loadDetector(t)
	want, err := ref.Check(img[0])
	if err != nil {
		t.Fatal(err)
	}
	checkOnce := func(ctx string) {
		resp, body := post(t, ts.URL+"/v1/check", checkBody(t, img[0]))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: check = %d (body %q)", ctx, resp.StatusCode, body)
		}
		var v VerdictResponse
		if err := json.Unmarshal([]byte(body), &v); err != nil {
			t.Fatal(err)
		}
		sameVerdict(t, v, want, ctx)
	}
	checkOnce("before corruption")

	// Rot a payload byte of the validator container: the checksum
	// catches it at the next reload.
	fi, err := os.Stat(valPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := faultinject.FlipBit(valPath, fi.Size()-10, 4); err != nil {
		t.Fatal(err)
	}

	before := s.Detector()
	for i := 1; i <= 3; i++ {
		resp, body := post(t, ts.URL+"/v1/reload", nil)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("reload %d of corrupt artifact = %d (body %q), want 500", i, resp.StatusCode, body)
		}
		if got := reg.Counter(MetricReloadFailed).Value(); got != int64(i) {
			t.Fatalf("%s = %d after %d failures", MetricReloadFailed, got, i)
		}
		if s.Detector() != before {
			t.Fatal("failed reload swapped the detector")
		}
		checkOnce("between failed reloads")
	}

	if !s.Degraded() {
		t.Fatalf("server not degraded after 3 consecutive reload failures (streak %d)", s.FailStreak())
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 256)
	n, _ := resp.Body.Read(data)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(data[:n]), "degraded") {
		t.Fatalf("degraded readyz = %d %q, want 503 degraded", resp.StatusCode, data[:n])
	}
	// Degraded is an orchestrator signal, not an outage: checks still
	// answer on the last good detector.
	checkOnce("while degraded")

	// Restore the artifact: the next reload succeeds and heals readyz.
	copyFile(t, testValPath, valPath)
	resp2, body := post(t, ts.URL+"/v1/reload", nil)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("reload of restored artifact = %d (body %q)", resp2.StatusCode, body)
	}
	if s.Degraded() || s.FailStreak() != 0 {
		t.Fatalf("degradation did not clear (streak %d)", s.FailStreak())
	}
	if g, ok := reg.Snapshot().Gauges[MetricReloadFailStreak]; !ok || g != 0 {
		t.Fatalf("%s gauge = %v after recovery, want 0", MetricReloadFailStreak, g)
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after recovery = %d, want 200", resp.StatusCode)
	}
	checkOnce("after recovery")
}

// TestReloadWithBackoff drives the SIGHUP retry loop through a flaky
// fault: two injected failures, then success on the third attempt.
func TestReloadWithBackoff(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	reg := telemetry.New()
	s, _ := newTestServer(t, Config{
		Registry: reg,
		Loader: func() (*deepvalidation.Detector, error) {
			return deepvalidation.Load(testModelPath, testValPath)
		},
		ReloadRetries:    3,
		ReloadBackoff:    time.Millisecond,
		ReloadBackoffCap: 4 * time.Millisecond,
	})

	faultinject.ArmCount(faultinject.PointServeReload, 2)
	eps, err := s.ReloadWithBackoff(context.Background())
	if err != nil {
		t.Fatalf("flaky reload did not recover: %v", err)
	}
	if math.Float64bits(eps) != math.Float64bits(testEps) {
		t.Fatalf("recovered reload eps = %v, want %v", eps, testEps)
	}
	if got := reg.Counter(MetricReloadFailed).Value(); got != 2 {
		t.Fatalf("%s = %d, want 2 (the injected failures)", MetricReloadFailed, got)
	}
	if s.FailStreak() != 0 {
		t.Fatalf("streak = %d after eventual success, want 0", s.FailStreak())
	}

	// A permanently failing reload exhausts its retries and reports the
	// last failure.
	faultinject.Arm(faultinject.PointServeReload, nil)
	if _, err := s.ReloadWithBackoff(context.Background()); err == nil {
		t.Fatal("permanently failing reload reported success")
	}
}

// TestReloadRejectsGeometryChange: a loader that comes back with a
// detector of a different input geometry must be rejected — queued
// requests were admitted against the old shape.
func TestReloadRejectsGeometryChange(t *testing.T) {
	// A real detector with 16×16 inputs (the fixture serves 8×8).
	rng := rand.New(rand.NewSource(3))
	n := 90
	imgs := make([]deepvalidation.Image, 0, n)
	labels := make([]int, 0, n)
	for i := 0; i < n; i++ {
		k := rng.Intn(3)
		px := make([]float64, 256)
		for j := range px {
			px[j] = 0.15 * rng.Float64()
		}
		for y := 5 * k; y < 5*k+5; y++ {
			for x := 0; x < 16; x++ {
				px[y*16+x] = 0.8 + 0.2*rng.Float64()
			}
		}
		imgs = append(imgs, deepvalidation.Image{Channels: 1, Height: 16, Width: 16, Pixels: px})
		labels = append(labels, k)
	}
	big, err := deepvalidation.Build(imgs, labels, deepvalidation.BuildConfig{
		Classes: 3, Epochs: 6, Width: 4, FCWidth: 16,
		SVMPerClass: 30, SVMFeatures: 64, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}

	s, ts := newTestServer(t, Config{
		Loader: func() (*deepvalidation.Detector, error) { return big, nil },
	})
	before := s.Detector()
	resp, body := post(t, ts.URL+"/v1/reload", nil)
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(body, "geometry") {
		t.Fatalf("geometry-changing reload = %d (body %q), want 500 mentioning geometry", resp.StatusCode, body)
	}
	if s.Detector() != before {
		t.Fatal("geometry-changing reload swapped the detector")
	}
	img, _ := testImages(43, 1)
	if resp, _ := post(t, ts.URL+"/v1/check", checkBody(t, img[0])); resp.StatusCode != http.StatusOK {
		t.Fatalf("check after rejected reload = %d, want 200", resp.StatusCode)
	}
}

// TestBatchFallbackUnderFault arms the serve.batch point so every
// micro-batch "fails" and is re-scored singly; the per-request
// fallback must produce bit-identical verdicts, invisibly to clients.
// The point fires before the batch is scored, so each image is scored
// exactly once.
func TestBatchFallbackUnderFault(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	s, ts := newTestServer(t, Config{MaxBatch: 8})
	ref := loadDetector(t)
	imgs, _ := testImages(47, 4)
	want := make([]deepvalidation.Verdict, len(imgs))
	for i, img := range imgs {
		v, err := ref.Check(img)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}

	faultinject.Arm(faultinject.PointServeBatch, nil)
	before, _, _ := s.Detector().Stats()
	resp, body := post(t, ts.URL+"/v1/batch", batchBody(t, imgs))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch under fault = %d (body %q)", resp.StatusCode, body)
	}
	if after, _, _ := s.Detector().Stats(); after-before != len(imgs) {
		t.Errorf("scored %d times for %d images under fault, want once each", after-before, len(imgs))
	}
	var br BatchResponse
	if err := json.Unmarshal([]byte(body), &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Verdicts) != len(imgs) {
		t.Fatalf("got %d verdicts for %d images", len(br.Verdicts), len(imgs))
	}
	for i, v := range br.Verdicts {
		sameVerdict(t, v, want[i], "fallback path")
	}
	// Healthy verdicts must not carry the quarantined field on the wire
	// (omitempty keeps the happy-path format unchanged).
	if strings.Contains(body, "quarantined") {
		t.Fatalf("healthy batch response leaks the quarantined field: %s", body)
	}
}

// TestDeadlinePixelsNotRecycled pins who may recycle a decoded pixel
// slice. The serve.batch point holds request A's micro-batch until A's
// handler has answered 504, then fails it, so the per-request fallback
// scores A's pixels after the handler gave up. Fresh checks sent next
// must get the reference verdicts. A handler that recycled its pixels
// on the deadline path would hand A's slice to the first of them, whose
// decode writes it with nothing ordering the write after the
// fallback's read: under -race that is reported as a data race and
// fails the test.
func TestDeadlinePixelsNotRecycled(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	_, ts := newTestServer(t, Config{MaxBatch: 1, Workers: 2, RequestTimeout: time.Second})
	answered := make(chan struct{})
	unblock := sync.OnceFunc(func() { close(answered) })
	t.Cleanup(unblock) // runs before the server closes, even on failure
	ref := loadDetector(t)
	imgs, _ := testImages(53, 8)

	// One warm check leaves one slice on the free list for A to take.
	if resp, body := post(t, ts.URL+"/v1/check", checkBody(t, imgs[0])); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm check = %d (body %q)", resp.StatusCode, body)
	}
	var calls atomic.Int32
	faultinject.Arm(faultinject.PointServeBatch, func() error {
		if calls.Add(1) > 1 {
			return nil
		}
		<-answered
		return faultinject.ErrInjected
	})
	if resp, body := post(t, ts.URL+"/v1/check", checkBody(t, imgs[1])); resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("held check = %d (body %q), want 504", resp.StatusCode, body)
	}
	unblock()
	// Give the fallback time to read A's pixels before the fresh checks
	// decode. A sleep orders nothing for the race detector, so a fresh
	// decode writing A's slice still races with that read.
	time.Sleep(50 * time.Millisecond)
	for i, img := range imgs[2:] {
		resp, body := post(t, ts.URL+"/v1/check", checkBody(t, img))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("fresh check %d = %d (body %q)", i, resp.StatusCode, body)
		}
		var got VerdictResponse
		if err := json.Unmarshal([]byte(body), &got); err != nil {
			t.Fatal(err)
		}
		want, err := ref.Check(img)
		if err != nil {
			t.Fatal(err)
		}
		sameVerdict(t, got, want, fmt.Sprintf("fresh check %d", i))
	}
}
