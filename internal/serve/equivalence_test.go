package serve

// Serving-path extension of the PR 1 determinism suite: GOMAXPROCS
// concurrent clients hammer the micro-batcher and every verdict that
// comes back over HTTP must be bit-identical to a sequential
// Detector.Check of the same image — at several MaxBatch/Workers
// settings, including batching disabled. Run under -race by `make
// race` and CI, this doubles as the data-race proof for the admission
// queue, the batcher, and the atomic detector handle.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"deepvalidation"
)

// refVerdicts scores the pool sequentially through Detector.Check on a
// fresh detector — the ground truth every served verdict must match
// bit for bit.
func refVerdicts(t *testing.T, pool []deepvalidation.Image) []deepvalidation.Verdict {
	t.Helper()
	ref := loadDetector(t)
	out := make([]deepvalidation.Verdict, len(pool))
	for i, img := range pool {
		v, err := ref.Check(img)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = v
	}
	return out
}

func TestServeEquivalenceConcurrent(t *testing.T) {
	pool, _ := testImages(41, 40)
	want := refVerdicts(t, pool)

	settings := []struct {
		name string
		cfg  Config
	}{
		{"unbatched", Config{MaxBatch: 1, Workers: 1}},
		// A sweep of at most 4 queued requests shared by 2 workers.
		{"small window", Config{MaxBatch: 4, Workers: 2}},
		{"wide batch", Config{MaxBatch: 32, Workers: 4}},
	}
	for _, tc := range settings {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestServer(t, tc.cfg)
			clients := runtime.GOMAXPROCS(0)
			if clients < 2 {
				clients = 2
			}
			const perClient = 25
			errs := make(chan error, clients)
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					errs <- hammer(ts, pool, want, c, perClient)
				}(c)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// hammer issues perClient requests, alternating the single-check and
// batch endpoints, and verifies every verdict against the sequential
// reference.
func hammer(ts *httptest.Server, pool []deepvalidation.Image, want []deepvalidation.Verdict, client, perClient int) error {
	for j := 0; j < perClient; j++ {
		i := (client*31 + j*7) % len(pool)
		if j%3 == 2 {
			// Batch of three consecutive pool images.
			idx := []int{i, (i + 1) % len(pool), (i + 2) % len(pool)}
			imgs := make([]CheckRequest, len(idx))
			for k, p := range idx {
				img := pool[p]
				imgs[k] = CheckRequest{Channels: img.Channels, Height: img.Height, Width: img.Width, Pixels: img.Pixels}
			}
			body, err := json.Marshal(BatchRequest{Images: imgs})
			if err != nil {
				return err
			}
			var br BatchResponse
			if err := postJSON(ts.URL+"/v1/batch", body, &br); err != nil {
				return fmt.Errorf("client %d batch %d: %w", client, j, err)
			}
			if len(br.Verdicts) != len(idx) {
				return fmt.Errorf("client %d batch %d: %d verdicts for %d images", client, j, len(br.Verdicts), len(idx))
			}
			for k, p := range idx {
				if err := equalVerdict(br.Verdicts[k], want[p]); err != nil {
					return fmt.Errorf("client %d batch %d image %d: %w", client, j, p, err)
				}
			}
			continue
		}
		img := pool[i]
		body, err := json.Marshal(CheckRequest{Channels: img.Channels, Height: img.Height, Width: img.Width, Pixels: img.Pixels})
		if err != nil {
			return err
		}
		var v VerdictResponse
		if err := postJSON(ts.URL+"/v1/check", body, &v); err != nil {
			return fmt.Errorf("client %d check %d: %w", client, j, err)
		}
		if err := equalVerdict(v, want[i]); err != nil {
			return fmt.Errorf("client %d check %d (image %d): %w", client, j, i, err)
		}
	}
	return nil
}

func postJSON(url string, body []byte, out any) error {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func equalVerdict(got VerdictResponse, want deepvalidation.Verdict) error {
	if got.Label != want.Label || got.Valid != want.Valid ||
		math.Float64bits(got.Confidence) != math.Float64bits(want.Confidence) ||
		math.Float64bits(got.Discrepancy) != math.Float64bits(want.Discrepancy) {
		return fmt.Errorf("served verdict %+v != sequential %+v", got, want)
	}
	return nil
}

// TestConcurrentReloadUnderLoad swaps detectors while clients hammer
// the server: every request must still succeed with a bit-identical
// verdict (old and new detectors are loaded from the same artifacts),
// proving the atomic handle never exposes a half-built detector.
func TestConcurrentReloadUnderLoad(t *testing.T) {
	pool, _ := testImages(43, 20)
	want := refVerdicts(t, pool)
	cfg := Config{
		MaxBatch: 8, Workers: 2,
		Loader: func() (*deepvalidation.Detector, error) {
			return deepvalidation.Load(testModelPath, testValPath)
		},
	}
	s, ts := newTestServer(t, cfg)

	stop := make(chan struct{})
	reloadErr := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				reloadErr <- nil
				return
			default:
				if _, err := s.Reload(); err != nil {
					reloadErr <- err
					return
				}
			}
		}
	}()

	clients := runtime.GOMAXPROCS(0)
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs <- hammer(ts, pool, want, c, 15)
		}(c)
	}
	wg.Wait()
	close(stop)
	if err := <-reloadErr; err != nil {
		t.Fatalf("reload loop: %v", err)
	}
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
