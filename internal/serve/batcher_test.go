package serve

// The batching rule, read from counters rather than the clock: a batch
// is formed when a worker frees, from whatever has queued by then.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	"deepvalidation"
	"deepvalidation/internal/faultinject"
	"deepvalidation/internal/telemetry"
	"deepvalidation/internal/trace"
)

// holdFirstBatch arms the serve.batch point so the first batch scored
// blocks until the returned release is called (at the latest when the
// test ends, before its server closes), and every later batch passes.
// calls counts the batches that reached the point.
func holdFirstBatch(t *testing.T) (calls *atomic.Int32, release func()) {
	t.Helper()
	t.Cleanup(faultinject.Reset)
	held := make(chan struct{})
	release = sync.OnceFunc(func() { close(held) })
	t.Cleanup(release)
	calls = new(atomic.Int32)
	faultinject.Arm(faultinject.PointServeBatch, func() error {
		if calls.Add(1) == 1 {
			<-held
		}
		return nil
	})
	return calls, release
}

// checkAsync posts one image to /v1/check and delivers the outcome,
// checked against want, on the returned channel.
func checkAsync(url string, img deepvalidation.Image, want deepvalidation.Verdict) <-chan error {
	c := make(chan error, 1)
	body, err := json.Marshal(CheckRequest{Channels: img.Channels, Height: img.Height, Width: img.Width, Pixels: img.Pixels})
	if err != nil {
		c <- err
		return c
	}
	go func() {
		var v VerdictResponse
		if err := postJSON(url+"/v1/check", body, &v); err != nil {
			c <- err
			return
		}
		c <- equalVerdict(v, want)
	}()
	return c
}

// TestBatcherSweepsQueueBehindBusyWorker: with the only worker busy,
// the batcher pulls one request and waits for the worker; the requests
// queued behind it join its batch once the worker frees. Request A
// holds the worker inside the serve.batch point, N more requests
// arrive, and releasing A must score those N as one batch.
func TestBatcherSweepsQueueBehindBusyWorker(t *testing.T) {
	const n = 5
	reg := telemetry.New()
	s, ts := newTestServer(t, Config{MaxBatch: 8, Workers: 1, Registry: reg})
	calls, release := holdFirstBatch(t)
	imgs, _ := testImages(59, n+1)
	want := refVerdicts(t, imgs)

	replies := []<-chan error{checkAsync(ts.URL, imgs[0], want[0])}
	waitFor(t, "request A's batch to block in its worker", func() bool { return calls.Load() == 1 })
	for i := 1; i <= n; i++ {
		replies = append(replies, checkAsync(ts.URL, imgs[i], want[i]))
	}
	waitFor(t, "one request pulled and the rest queued", func() bool {
		return s.pulls.Load() == 2 && s.QueueLen() == n-1
	})
	release()
	for i, c := range replies {
		if err := <-c; err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	sizes := reg.Histogram(MetricBatchSize, nil)
	if got, sum := sizes.Count(), sizes.Sum(); got != 2 || sum != 1+n {
		t.Fatalf("%s: %d batches carrying %v requests, want A's batch of 1 and one batch of %d", MetricBatchSize, got, sum, n)
	}
}

// TestBatcherIdleScoresAlone: a lone request on an idle server is
// scored as a batch of one, with the reference verdict.
func TestBatcherIdleScoresAlone(t *testing.T) {
	reg := telemetry.New()
	_, ts := newTestServer(t, Config{Registry: reg})
	imgs, _ := testImages(61, 1)
	want := refVerdicts(t, imgs)
	if err := <-checkAsync(ts.URL, imgs[0], want[0]); err != nil {
		t.Fatal(err)
	}
	sizes := reg.Histogram(MetricBatchSize, nil)
	if got, sum := sizes.Count(), sizes.Sum(); got != 1 || sum != 1 {
		t.Fatalf("%s: %d batches carrying %v requests, want one batch of 1", MetricBatchSize, got, sum)
	}
}

// TestBatchRecordsInMemberOrder: a batch request whose members are
// scored in several micro-batches answers and files its flight entries
// in member order even when micro-batches finish out of order. Five
// members at MaxBatch 2 make at least three micro-batches; the first to
// reach the serve.batch point (the first or the second formed) is held
// until every other member has been scored on the second worker and
// its slot is free again, so a later micro-batch always answers before
// an earlier one. The request's flight entries, newest first, must
// then read members n-1 … 0.
func TestBatchRecordsInMemberOrder(t *testing.T) {
	const n = 5
	s, ts := newTestServer(t, Config{MaxBatch: 2, Workers: 2, TraceSample: 1})
	calls, release := holdFirstBatch(t)
	imgs, _ := testImages(67, n)
	want := refVerdicts(t, imgs)

	body := batchBody(t, imgs)
	reply := make(chan error, 1)
	go func() {
		reply <- func() error {
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/batch", bytes.NewReader(body))
			if err != nil {
				return err
			}
			req.Header.Set(trace.HeaderTraceID, "ordered")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("status %d", resp.StatusCode)
			}
			var got BatchResponse
			if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
				return err
			}
			if len(got.Verdicts) != n {
				return fmt.Errorf("%d verdicts for %d images", len(got.Verdicts), n)
			}
			for i, v := range got.Verdicts {
				if err := equalVerdict(v, want[i]); err != nil {
					return fmt.Errorf("image %d: %w", i, err)
				}
			}
			return nil
		}()
	}()
	waitFor(t, "every member but the held micro-batch's scored", func() bool {
		return calls.Load() >= 2 && s.pulls.Load() == n && s.QueueLen() == 0 && len(s.slots) == 1
	})
	release()
	if err := <-reply; err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, e := range s.flight.Snapshot(trace.Filter{}) {
		ids = append(ids, e.TraceID)
	}
	for i, id := range ids {
		if want := trace.ItemID("ordered", n-1-i); id != want || len(ids) != n {
			t.Fatalf("flight entries, newest first: %q; want ordered.%d down to ordered.0", ids, n-1)
		}
	}
}

// TestRejectedBatchKeepsNoImages: a batch whose third image fails
// validation is refused after its first two were decoded into the
// request record, and the record goes back to the free list. The
// record handed out next must hold none of those images anywhere in its
// storage, not just within its length: a record kept on the list must
// not keep a refused request's pixels alive.
func TestRejectedBatchKeepsNoImages(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	imgs, _ := testImages(91, 3)
	imgs[2].Pixels = imgs[2].Pixels[:len(imgs[2].Pixels)-1]
	if resp, body := post(t, ts.URL+"/v1/batch", batchBody(t, imgs)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("batch with a short image = %d (%s), want 400", resp.StatusCode, body)
	}
	rq := takeRequest(s.requests)
	if cap(rq.imgs) < 2 {
		t.Fatalf("the next record has room for %d images; want the refused batch's record, which held 2", cap(rq.imgs))
	}
	for i, img := range rq.imgs[:cap(rq.imgs)] {
		if img.Pixels != nil {
			t.Errorf("the next record still holds image %d's %d pixels", i, len(img.Pixels))
		}
	}
}
