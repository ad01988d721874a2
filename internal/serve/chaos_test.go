package serve

// Chaos battery for the serving subsystem: reload under artifact
// corruption, degradation and recovery of /readyz, retrying reloads
// with backoff, geometry-change rejection, and the batch fallback
// path under fault injection. Throughout, the invariant is the one
// the paper's fail-safe deployment needs: no matter what happens to
// the artifacts on disk, the last good detector keeps answering with
// bit-identical verdicts.

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
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deepvalidation"
	"deepvalidation/internal/artifact"
	"deepvalidation/internal/faultinject"
	"deepvalidation/internal/obs"
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

// TestClientGoneNotScored: a request whose client goes away while it
// waits behind a busy worker is answered at once as a deadline and is
// never scored. Request A holds the only worker in the serve.batch
// point and B is admitted behind it; then B's client disconnects. B's
// handler must answer 504 without waiting out its 30 s deadline, and
// once A is released the batcher must skip B, so the detector's Stats
// count A alone.
func TestClientGoneNotScored(t *testing.T) {
	reg := telemetry.New()
	s, ts := newTestServer(t, Config{MaxBatch: 1, Workers: 1, Registry: reg})
	calls, release := holdFirstBatch(t)
	imgs, _ := testImages(71, 2)
	want := refVerdicts(t, imgs)
	before, _, _ := s.Detector().Stats()

	a := checkAsync(ts.URL, imgs[0], want[0])
	waitFor(t, "request A's batch to block in its worker", func() bool { return calls.Load() == 1 })
	client, leave := context.WithCancel(context.Background())
	defer leave()
	req := httptest.NewRequest(http.MethodPost, "/v1/check", bytes.NewReader(checkBody(t, imgs[1]))).WithContext(client)
	rec := httptest.NewRecorder()
	answered := make(chan struct{})
	go func() {
		defer close(answered)
		s.Handler().ServeHTTP(rec, req)
	}()
	waitFor(t, "request B admitted behind A", func() bool { return s.pulls.Load()+int64(s.QueueLen()) == 2 })
	leave()
	select {
	case <-answered:
	case <-time.After(10 * time.Second):
		t.Fatal("request B's handler still waiting 10 s after its client went away")
	}
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("request B = %d (body %q), want 504", rec.Code, rec.Body.String())
	}
	if got := reg.Counter(MetricDeadline).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", MetricDeadline, got)
	}
	release()
	if err := <-a; err != nil {
		t.Fatalf("request A: %v", err)
	}
	s.Close() // every batch the batcher formed has been run
	if after, _, _ := s.Detector().Stats(); after-before != 1 {
		t.Fatalf("the detector checked %d images, want 1: the request whose client went away was scored", after-before)
	}
}

// TestExpiredRecordsNotReused pins who may reuse a request record. Both
// worker slots are taken by the test, so a burst of checks on a server
// whose deadlines pass at once (RequestTimeout 1 ns) all answer 504
// while their members wait in the queue. Then, with a real deadline,
// one more check queues behind them before the slots come back, and
// checks sent one at a time after it must each receive the verdict of
// its own image. A handler that put its record back on the deadline
// path would hand a later request a record whose member is still
// queued, perhaps many times over: the batcher would score that
// request's image once per queued pointer, and the surplus verdicts
// would be read by the next requests to take the record, or block the
// worker delivering them.
func TestExpiredRecordsNotReused(t *testing.T) {
	s, err := New(deepvalidation.NewHandle(loadDetector(t)), Config{RequestTimeout: time.Nanosecond, MaxBatch: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// After a failure a worker may be blocked delivering a surplus
	// verdict, which Close would wait for forever.
	t.Cleanup(func() {
		if !t.Failed() {
			s.Close()
		}
	})
	h := s.Handler()
	const burst = 32
	imgs, _ := testImages(73, burst+8)
	want := refVerdicts(t, imgs[burst:])
	bodies := make([][]byte, len(imgs))
	for i, img := range imgs {
		bodies[i] = checkBody(t, img)
	}
	check := func(body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/check", bytes.NewReader(body)))
		return rec
	}

	slots := []*batchBuf{<-s.slots, <-s.slots}
	var wg sync.WaitGroup
	for _, body := range bodies[:burst] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if rec := check(body); rec.Code != http.StatusGatewayTimeout {
				t.Errorf("expired check = %d (body %q), want 504", rec.Code, rec.Body.String())
			}
		}()
	}
	wg.Wait()
	// No handler runs now, and every later one starts after this write.
	s.cfg.RequestTimeout = 10 * time.Second
	first := make(chan *httptest.ResponseRecorder, 1)
	go func() { first <- check(bodies[burst]) }()
	waitFor(t, "the first fresh check queued behind the burst", func() bool {
		return s.pulls.Load()+int64(s.QueueLen()) == burst+1
	})
	for _, b := range slots {
		s.slots <- b
	}
	recs := []*httptest.ResponseRecorder{<-first}
	for _, body := range bodies[burst+1:] {
		recs = append(recs, check(body))
	}
	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			t.Fatalf("fresh check %d = %d (body %q)", i, rec.Code, rec.Body.String())
		}
		var got VerdictResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		sameVerdict(t, got, want[i], fmt.Sprintf("fresh check %d", i))
	}
}

// TestReadyzReportsLoadedChecksums: /readyz names the artifacts the
// serving detector was loaded from, not what the files hold now. The
// loader writes another artifact pair over the files right after
// loading them, as a deploy racing a reload would. After the first
// reload /readyz must still report the checksums of the pair it
// loaded; the second reload loads the new pair and must report it, with
// dv_build_info moved to the new checksums.
func TestReadyzReportsLoadedChecksums(t *testing.T) {
	dir := t.TempDir()
	modelP, valP := filepath.Join(dir, "model.dvart"), filepath.Join(dir, "validator.dvart")
	copyFile(t, testModelPath, modelP)
	copyFile(t, testValPath, valP)
	imgs, labels := testImages(1, 90)
	other, err := deepvalidation.Build(imgs, labels, deepvalidation.BuildConfig{
		Classes: 3, Epochs: 6, Width: 4, FCWidth: 16,
		SVMPerClass: 20, SVMFeatures: 64, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	otherM, otherV := filepath.Join(dir, "other-model.dvart"), filepath.Join(dir, "other-validator.dvart")
	if err := other.Save(otherM, otherV); err != nil {
		t.Fatal(err)
	}
	sha := func(path string) string {
		info, err := artifact.ReadHeader(path)
		if err != nil {
			t.Fatal(err)
		}
		return info.Header.PayloadSHA256
	}
	loaded := [2]string{sha(modelP), sha(valP)}
	next := [2]string{sha(otherM), sha(otherV)}
	if loaded[0] == next[0] || loaded[1] == next[1] {
		t.Fatalf("the two artifact pairs share a checksum: %q and %q", loaded, next)
	}

	reg := telemetry.New()
	s, ts := newTestServer(t, Config{
		Registry: reg,
		Loader: func() (*deepvalidation.Detector, error) {
			det, err := deepvalidation.Load(modelP, valP)
			copyFile(t, otherM, modelP)
			copyFile(t, otherV, valP)
			return det, err
		},
	})
	readyz := func() [2]string {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
		var body ReadyzBody
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &body); err != nil {
			t.Fatalf("readyz JSON line %q: %v", lines[len(lines)-1], err)
		}
		return [2]string{body.ModelSHA256, body.ValidatorSHA256}
	}
	buildInfo := func(shas [2]string) float64 {
		for name, v := range reg.Snapshot().Gauges {
			if strings.HasPrefix(name, obs.MetricBuildInfo+"{") &&
				strings.Contains(name, `model_sha256="`+shas[0]+`"`) && strings.Contains(name, `validator_sha256="`+shas[1]+`"`) {
				return v
			}
		}
		return -1
	}
	if got := readyz(); got != loaded {
		t.Fatalf("readyz at start reports %q, want the loaded pair %q", got, loaded)
	}
	if _, err := s.Reload(); err != nil {
		t.Fatal(err)
	}
	if got := readyz(); got != loaded {
		t.Fatalf("readyz after a reload that loaded %q reports %q: the files replaced afterwards", loaded, got)
	}
	if _, err := s.Reload(); err != nil {
		t.Fatal(err)
	}
	if got := readyz(); got != next {
		t.Fatalf("readyz after reloading the new pair reports %q, want %q", got, next)
	}
	if old, cur := buildInfo(loaded), buildInfo(next); old != 0 || cur != 1 {
		t.Fatalf("%s: the replaced checksums' series = %v, the serving ones' = %v; want 0 and 1", obs.MetricBuildInfo, old, cur)
	}
}
