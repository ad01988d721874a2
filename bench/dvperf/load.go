package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"deepvalidation"
	"deepvalidation/internal/core"
	"deepvalidation/internal/nn"
	"deepvalidation/internal/serve"
	"deepvalidation/internal/trace"
)

// errMismatch marks an operation whose output differs from the
// reference; any such operation makes the run exit non-zero.
var errMismatch = errors.New("verdict mismatch")

// opFunc performs operation k, tagged with the request ID id, and
// returns how many images it checked or trained on.
type opFunc func(ctx context.Context, k int, id string) (images int, err error)

// opRec is one operation of a phase. due is when it was scheduled (open
// loop) or started (closed loop); latency runs from due to end, so a
// stall also counts against the requests queued behind it.
type opRec struct {
	k          int
	id         string
	due, start time.Time
	end        time.Time
	late       time.Duration // how late the open-loop generator issued it
	images     int
	err        error
}

// loadShape is how a phase offers load: an open loop of Poisson
// arrivals at rate per second served by workers connections, or a
// closed loop of workers that each send the next operation as soon as
// the previous one completes.
type loadShape struct {
	rate    float64
	workers int
}

type phase struct {
	start time.Time
	ops   []opRec
}

// runPhase offers load for dur and returns every operation issued in
// that time; operations still in flight at the end are waited for.
func runPhase(ctx context.Context, shape loadShape, dur time.Duration, rng *rand.Rand, idPrefix string, op opFunc) *phase {
	p := &phase{start: time.Now()}
	var mu sync.Mutex
	do := func(r opRec) {
		r.start = time.Now()
		if r.due.IsZero() {
			r.due = r.start
		}
		r.images, r.err = op(ctx, r.k, r.id)
		r.end = time.Now()
		mu.Lock()
		p.ops = append(p.ops, r)
		mu.Unlock()
	}
	id := func(k int) string { return fmt.Sprintf("%s-%d", idPrefix, k) }
	var wg sync.WaitGroup
	if shape.rate > 0 {
		// Poisson arrivals conditioned on their count: rate·dur arrival
		// times drawn uniformly over the phase. Bursts stay random, but
		// every seed offers the same number of requests.
		n := int(math.Round(shape.rate * dur.Seconds()))
		offsets := make([]float64, n)
		for i := range offsets {
			offsets[i] = rng.Float64() * float64(dur)
		}
		sort.Float64s(offsets)
		// Sized to hold every arrival of the phase, so a stalled server
		// never blocks the generator: its backlog shows as latency.
		jobs := make(chan opRec, n)
		for w := 0; w < shape.workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := range jobs {
					do(r)
				}
			}()
		}
		for k, off := range offsets {
			if ctx.Err() != nil {
				break
			}
			due := p.start.Add(time.Duration(off))
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			jobs <- opRec{k: k, id: id(k), due: due, late: time.Since(due)}
		}
		close(jobs)
	} else {
		var next atomic.Int64
		for w := 0; w < shape.workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ctx.Err() == nil && time.Since(p.start) < dur {
					k := int(next.Add(1) - 1)
					do(opRec{k: k, id: id(k)})
				}
			}()
		}
	}
	wg.Wait()
	sort.Slice(p.ops, func(i, j int) bool { return p.ops[i].k < p.ops[j].k })
	return p
}

// latenciesMs returns the latency of every successful operation in
// milliseconds. A failed one is left out: a shed or a transport error
// returns fast and would make a failing system look quicker.
func (p *phase) latenciesMs() []float64 {
	out := make([]float64, 0, len(p.ops))
	for _, r := range p.ops {
		if r.err == nil {
			out = append(out, ms(r.end.Sub(r.due)))
		}
	}
	return out
}

// images counts the images of successful operations.
func (p *phase) images() int {
	n := 0
	for _, r := range p.ops {
		if r.err == nil {
			n += r.images
		}
	}
	return n
}

// imagesPerSecond is the images of successful operations over the time
// from the phase start to the last completion, so a backlog that
// outlives the phase lowers the rate instead of hiding.
func (p *phase) imagesPerSecond() float64 {
	last := p.start
	for _, r := range p.ops {
		if r.end.After(last) {
			last = r.end
		}
	}
	if !last.After(p.start) {
		return 0
	}
	return float64(p.images()) / last.Sub(p.start).Seconds()
}

// failures counts failed operations and, among them, mismatches; it
// reports the first few errors on log.
func (p *phase) failures(log io.Writer) (failed, mismatched int) {
	for _, r := range p.ops {
		if r.err == nil {
			continue
		}
		failed++
		if errors.Is(r.err, errMismatch) {
			mismatched++
		}
		if failed <= 3 {
			fmt.Fprintf(log, "dvperf: operation %d failed: %v\n", r.k, r.err)
		}
	}
	return failed, mismatched
}

// newClient returns an HTTP client holding at most two keep-alive
// connections to the front server.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     2,
			MaxIdleConnsPerHost: 2,
			DisableCompression:  true,
		},
	}
}

// post sends one JSON body with the request's ID in X-DV-Trace-Id (the
// gateway routes by it; tracing servers record the request under it)
// and returns the 200 response body.
func post(ctx context.Context, c *http.Client, url, id string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(trace.HeaderTraceID, id)
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s: %s", url, resp.Status, bytes.TrimSpace(data))
	}
	return data, nil
}

// checkOp posts pool image order[k] to /v1/check.
func checkOp(c *http.Client, front string, pl *pool, order []int) opFunc {
	return func(ctx context.Context, k int, id string) (int, error) {
		i := order[k%len(order)]
		data, err := post(ctx, c, front+"/v1/check", id, pl.bodies[i])
		if err != nil {
			return 0, err
		}
		var v serve.VerdictResponse
		if err := json.Unmarshal(data, &v); err != nil {
			return 0, fmt.Errorf("decoding verdict: %w", err)
		}
		if !sameVerdict(v, pl.ref[i]) {
			return 0, fmt.Errorf("%w: image %d: served %+v, reference %+v", errMismatch, i, v, pl.ref[i])
		}
		return 1, nil
	}
}

// batchSet is a set of pre-encoded /v1/batch bodies, each a seeded
// draw of pool images.
type batchSet struct {
	idx    [][]int
	bodies [][]byte
}

func buildBatches(pl *pool, rng *rand.Rand, n, size int) (*batchSet, error) {
	bs := &batchSet{}
	for b := 0; b < n; b++ {
		req := serve.BatchRequest{Images: make([]serve.CheckRequest, size)}
		idx := make([]int, size)
		for j := range idx {
			i := rng.Intn(len(pl.imgs))
			im := pl.imgs[i]
			idx[j] = i
			req.Images[j] = serve.CheckRequest{Channels: im.Channels, Height: im.Height, Width: im.Width, Pixels: im.Pixels}
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		bs.idx = append(bs.idx, idx)
		bs.bodies = append(bs.bodies, body)
	}
	return bs, nil
}

// batchOp posts batch body k (cycling through the set) to /v1/batch.
func batchOp(c *http.Client, front string, pl *pool, bs *batchSet) opFunc {
	return func(ctx context.Context, k int, id string) (int, error) {
		b := k % len(bs.bodies)
		data, err := post(ctx, c, front+"/v1/batch", id, bs.bodies[b])
		if err != nil {
			return 0, err
		}
		var resp serve.BatchResponse
		if err := json.Unmarshal(data, &resp); err != nil {
			return 0, fmt.Errorf("decoding verdicts: %w", err)
		}
		if len(resp.Verdicts) != len(bs.idx[b]) {
			return 0, fmt.Errorf("%w: %d verdicts for %d images", errMismatch, len(resp.Verdicts), len(bs.idx[b]))
		}
		for j, v := range resp.Verdicts {
			if i := bs.idx[b][j]; !sameVerdict(v, pl.ref[i]) {
				return 0, fmt.Errorf("%w: batch item %d (image %d): served %+v, reference %+v", errMismatch, j, i, v, pl.ref[i])
			}
		}
		return len(resp.Verdicts), nil
	}
}

// chunk is one offline-score call's images and their pool indices.
type chunk struct {
	idx  []int
	imgs []deepvalidation.Image
}

func buildChunks(pl *pool, rng *rand.Rand, n, size int) []chunk {
	out := make([]chunk, n)
	for c := range out {
		for j := 0; j < size; j++ {
			i := rng.Intn(len(pl.imgs))
			out[c].idx = append(out[c].idx, i)
			out[c].imgs = append(out[c].imgs, pl.imgs[i])
		}
	}
	return out
}

// offlineOp checks chunk k in-process through the public batch API.
func offlineOp(det *deepvalidation.Detector, pl *pool, chunks []chunk) opFunc {
	return func(_ context.Context, k int, _ string) (int, error) {
		c := chunks[k%len(chunks)]
		vs, err := det.CheckBatch(c.imgs)
		if err != nil {
			return 0, err
		}
		for j, v := range vs {
			if want := pl.ref[c.idx[j]]; v != want {
				return 0, fmt.Errorf("%w: chunk item %d (image %d): got %+v, reference %+v", errMismatch, j, c.idx[j], v, want)
			}
		}
		return len(vs), nil
	}
}

// fitOp refits the validator on the fixture's training set and checks
// that its gob encoding equals the fixture validator's byte for byte.
func fitOp(net *nn.Network, fx *fixture, cfg core.Config) opFunc {
	return func(context.Context, int, string) (int, error) {
		v, err := core.Fit(net, fx.trainX, fx.trainY, cfg)
		if err != nil {
			return 0, err
		}
		var buf bytes.Buffer
		if err := v.Encode(&buf); err != nil {
			return 0, err
		}
		if !bytes.Equal(buf.Bytes(), fx.valGob) {
			return 0, fmt.Errorf("%w: refitted validator's gob differs from the fixture's", errMismatch)
		}
		return len(fx.trainX), nil
	}
}
