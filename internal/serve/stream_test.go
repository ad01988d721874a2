package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/iotest"

	"deepvalidation"
)

// testStreams is the stream list the tests decode through outside a
// server.
var testStreams = newStreamFree(0)

// streamDeclinedBodies are multi-image batch bodies the streamed
// decoder declines after accepting part of them: in the head (which it
// takes only as `{"images":[`), at image k ≥ 1, and in the tail. The
// rebuilt body must decode exactly as the original. The last is
// accepted but fails validation, which must also match.
var streamDeclinedBodies = []string{
	`{"explain":true,"images":[{"channels":1,"height":1,"width":1,"pixels":[0.5]},{"channels":1,"height":1,"width":1,"pixels":[1]}]}`,    // head: explain first
	`{"Images":[{"channels":1,"height":1,"width":1,"pixels":[0.5]},{"channels":1,"height":1,"width":1,"pixels":[1]}]}`,                   // head: case-variant key
	`{"images":[{"channels":1,"height":1,"width":1,"pixels":[1E+2]},{"channels":1,"height":1,"width":1,"Pixels":[0.25]}]}`,               // image 1: case-variant key
	`{"images":[{"channels":1,"height":1,"width":1,"pixels":[-0]},{"channels":1,"height":1,"width":1,"pixels":[1e-400],"x":1}]}`,         // image 1: unknown key
	`{"images":[{"height":1,"width":1,"pixels":[0.5]},{"channels":1,"height":1,"width":1},{"channels":1e0,"height":1,"width":1}]}`,       // image 2: exponent dimension
	`{"images":[{"channels":1,"height":1,"width":1,"pixels":[0.5]},{"channels":1,"height":1,"width":1,"pixels":[1e309]}]}`,               // image 1: float out of range
	`{"images":[{"channels":1,"height":1,"width":1,"pixels":[0.5],"explain":true} {"channels":1,"height":1,"width":1,"pixels":[1]}]}`,    // separator missing
	`{"images":[{"channels":1,"height":1,"width":1,"pixels":[0.5]},{"channels":1,"height":1,"width":1,"pixels":[1]},]}`,                  // trailing comma
	`{"images":[{"channels":1,"height":1,"width":1,"pixels":[0.5]},{"channels":1,"height":1,"width":1,"pixels":[1]}],"explain":null}`,    // tail: null flag
	`{"images":[{"channels":1,"height":1,"width":1,"pixels":[0.5]}],"explain":true,"explain":false}`,                                     // tail: duplicate flag
	`{"images":[{"channels":1,"height":1,"width":1,"pixels":[0.5]}],"images":[{"channels":1,"height":1,"width":1,"pixels":[1]}]}`,        // tail: duplicate images
	`{"images":[{"channels":1,"height":1,"width":1,"pixels":[0.5]},{"channels":1,"height":1,"width":1,"pixels":[1]}]} x`,                 // tail: trailing bytes
	`{"images":[{"channels":1,"height":1,"width":1,"pixels":[0.5]},{"channels":1,"height":1,"width":1,"pixels":[1]}]`,                    // tail: truncated
	`{"images":[{"channels":1,"height":2,"width":1,"pixels":[0.5]},{"channels":1,"height":1,"width":1,"pixels":[1]}], "explain" : true}`, // accepted; image 0 fails Validate
}

// chunkReader yields data in chunks of 1 to max bytes drawn from rng,
// returning io.EOF with the last one.
type chunkReader struct {
	data []byte
	max  int
	rng  *rand.Rand
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.data[:min(len(c.data), 1+c.rng.Intn(c.max))])
	c.data = c.data[n:]
	if len(c.data) == 0 {
		return n, io.EOF
	}
	return n, nil
}

// newStream returns an unpooled stream with an empty window of n bytes.
func newStream(n int) *stream {
	return &stream{buf: make([]byte, 0, n)}
}

// forEachRead hands decode a new stream and a reader over data once for
// each way the body can arrive: through a bytes.Reader, an
// iotest.OneByteReader and a chunkReader seeded with seed, each through
// the production 64 KiB window and through a window of 1–61 bytes (from
// seed) that makes almost every scan come up short. small reports the
// small window. decode returns the first difference from the reference,
// "" for none.
func forEachRead(t *testing.T, data []byte, seed int64, decode func(st *stream, r io.Reader, small bool) string) {
	t.Helper()
	readers := []struct {
		name string
		r    func() io.Reader
	}{
		{"whole", func() io.Reader { return bytes.NewReader(data) }},
		{"one byte", func() io.Reader { return iotest.OneByteReader(bytes.NewReader(data)) }},
		{"chunks", func() io.Reader { return &chunkReader{data: data, max: 64, rng: rand.New(rand.NewSource(seed))} }},
	}
	small := 1 + int(uint64(seed)%61)
	for _, rd := range readers {
		for _, window := range []int{windowSize, small} {
			if d := decode(newStream(window), rd.r(), window == small); d != "" {
				t.Fatalf("%s reader, %d-byte window: %s: %q", rd.name, window, d, data)
			}
		}
	}
}

// diffStream decodes data as a batch every way forEachRead reads it.
// The small-window decodes take pixels from a list primed with
// NaN-filled slices. Every result must equal the reference's on the
// whole body.
func diffStream(t *testing.T, data []byte, seed int64) {
	t.Helper()
	want, wantExplains, wantErr := referenceBatch(data)
	forEachRead(t, data, seed, func(st *stream, r io.Reader, small bool) string {
		var free *pixelFree
		if small && wantErr == nil {
			free = primedFree(len(want[0].Pixels), 2)
		}
		got, explains, err := st.batch(r, int64(len(data)), free, nil, nil)
		return diffDecoded(got, explains, err, want, wantExplains, wantErr)
	})
}

// diffCheckStream is diffStream for a check body.
func diffCheckStream(t *testing.T, data []byte, seed int64) {
	t.Helper()
	want, wantExplain, wantErr := referenceCheck(data)
	forEachRead(t, data, seed, func(st *stream, r io.Reader, small bool) string {
		var free *pixelFree
		if small && wantErr == nil {
			free = primedFree(len(want.Pixels), 1)
		}
		got, explain, err := st.check(r, int64(len(data)), free)
		return diffDecoded([]deepvalidation.Image{got}, []bool{explain}, err, []deepvalidation.Image{want}, []bool{wantExplain}, wantErr)
	})
}

// diffDecoded describes the first difference between two batch decodes;
// "" means equal.
func diffDecoded(got []deepvalidation.Image, explains []bool, err error, want []deepvalidation.Image, wantExplains []bool, wantErr error) string {
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		return fmt.Sprintf("error %v, reference %v", err, wantErr)
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d images, reference %d", len(got), len(want))
	}
	for i := range got {
		g := CheckRequest{Channels: got[i].Channels, Height: got[i].Height, Width: got[i].Width, Pixels: got[i].Pixels, Explain: explains[i]}
		w := CheckRequest{Channels: want[i].Channels, Height: want[i].Height, Width: want[i].Width, Pixels: want[i].Pixels, Explain: wantExplains[i]}
		if d := diffRequest(g, w); d != "" {
			return fmt.Sprintf("image %d: %s", i, d)
		}
	}
	return ""
}

// TestBatchStreamMatchesReference runs diffStream over real 28×28
// batches of 1–40 images, several 64 KiB windows long: canonical, with
// random bytes inserted, and with case-variant keys, so the streamed
// decoder accepts, declines at every stage and falls back after
// refilling its window many times.
func TestBatchStreamMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	imgs := digitImages(40)
	keys := []string{`"channels"`, `"height"`, `"width"`, `"pixels"`, `"images"`}
	const inserts = " \n,:[]{}\"0123456789.-+eEx"
	for trial := range 24 {
		body := batchBody(t, imgs[:1+rng.Intn(len(imgs))])
		if trial%3 != 0 {
			for range 1 + rng.Intn(3) {
				at := rng.Intn(len(body) + 1)
				body = append(body[:at], append([]byte{inserts[rng.Intn(len(inserts))]}, body[at:]...)...)
			}
		}
		if trial%2 == 1 {
			key := keys[rng.Intn(len(keys))]
			n := bytes.Count(body, []byte(key))
			if n > 0 {
				at := nthIndex(body, key, rng.Intn(n))
				body[at+1] -= 'a' - 'A'
			}
		}
		diffStream(t, body, int64(trial))
	}
}

// nthIndex returns the index of the n-th (from 0) occurrence of sep in
// s, which must exist.
func nthIndex(s []byte, sep string, n int) int {
	at := 0
	for ; n >= 0; n-- {
		at += bytes.Index(s[at:], []byte(sep)) + 1
	}
	return at - 1
}

// TestBatchStreamShortIsNotDecline: a canonical body is decoded by the
// scanner, not by the fallback, wherever a window boundary cuts it —
// inside a key, a number, a flag, whitespace or the tail. Through every
// window from 1 to 96 bytes, one byte per read, every image's pixels
// come from the primed free list (the fallback's come from
// encoding/json), and the streamed decode allocates at most the
// one-window decode's allocations, plus one per doubling of a window
// smaller than an image, plus the stream's own few (pixels go back
// after each decode, as in the handler, so a rescan allocates none); a
// scan that declined at a boundary instead of coming up short would
// rebuild the body and decode it again. The same body with a byte after
// it must be refused whatever the window.
func TestBatchStreamShortIsNotDecline(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	body := []byte(` {"images" : [ {"channels":1,"height":1,"width":2,"pixels":[0.5, -1.25e-3],"explain":false},` +
		"\n\t" + `{"pixels":[1E+2,0],"width":2,"height":1,"channels":1,"explain":true} ,` +
		`{"channels":1,"height":1,"width":2,"pixels":[123456789012345678901234567890,0]} ] , "explain" : true } `)
	limit := int64(len(body))
	want, wantExplains, wantErr := referenceBatch(body)
	if wantErr != nil {
		t.Fatal(wantErr)
	}
	free := primedFree(2, len(want))
	primed := make(map[*float64]bool, len(want))
	for _, xs := range free.stack {
		primed[&xs[:1][0]] = true
	}
	recycle := func(imgs []deepvalidation.Image) {
		for _, img := range imgs {
			free.put(img.Pixels, 2)
		}
	}
	whole := testing.AllocsPerRun(10, func() {
		imgs, _, _ := newStream(windowSize).batch(bytes.NewReader(body), limit, free, nil, nil)
		recycle(imgs)
	})
	for window := 1; window <= 96; window++ {
		st := newStream(window)
		got, explains, err := st.batch(iotest.OneByteReader(bytes.NewReader(body)), limit, free, nil, nil)
		if d := diffDecoded(got, explains, err, want, wantExplains, wantErr); d != "" {
			t.Fatalf("%d-byte window: %s", window, d)
		}
		for i, img := range got {
			if !primed[&img.Pixels[:1][0]] {
				t.Fatalf("%d-byte window: image %d's pixels are not from the free list: a scan declined at a window boundary", window, i)
			}
		}
		recycle(got)
		doublings := 0
		for c := int64(window); c < int64(cap(st.buf)); c = min(2*c, limit+1) {
			doublings++
		}
		allocs := testing.AllocsPerRun(10, func() {
			imgs, _, _ := newStream(window).batch(iotest.OneByteReader(bytes.NewReader(body)), limit, free, nil, nil)
			recycle(imgs)
		})
		if allocs > whole+float64(doublings)+5 {
			t.Errorf("%d-byte window: %.0f allocations, one-window decode %.0f plus %d window doublings: a scan declined at a window boundary", window, allocs, whole, doublings)
		}
		// The tail is accepted only at EOF, not where a window ends.
		for _, b := range [][]byte{body, []byte(`{"images":[{}]}`)} {
			trailing := append(bytes.Clone(b), 'x')
			_, _, err := newStream(window).batch(iotest.OneByteReader(bytes.NewReader(trailing)), int64(len(trailing)), nil, nil, nil)
			if _, _, wantErr := referenceBatch(trailing); err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("%d-byte window: %q: error %v, reference %v", window, trailing, err, wantErr)
			}
		}
	}
}

// TestBatchBodyErrors: /v1/batch and /v1/check answer a body they
// cannot read alike, and before any decode error, whether the body
// declares its length or is chunked. Over the limit, a canonical body
// and one malformed at its first byte both get 413; a failing reader
// gets 400 naming the read.
func TestBatchBodyErrors(t *testing.T) {
	const limit = 1 << 17 // two 64 KiB windows
	s, err := New(deepvalidation.NewHandle(loadDetector(t)), Config{MaxBodyBytes: limit})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	h := s.Handler()
	imgs := digitImages(12)
	overCheck := append(checkBody(t, imgs[0]), bytes.Repeat([]byte(" "), limit)...)
	overBatch := batchBody(t, imgs)
	if len(overBatch) <= limit {
		t.Fatalf("a %d-byte batch is not over the %d-byte limit", len(overBatch), limit)
	}
	malformedOver := bytes.Replace(overBatch, []byte(`"channels"`), []byte(`"channels"x`), 1)
	// One image whose JSON alone is over the limit: the window grows
	// past 64 KiB before the cap stops it.
	big := deepvalidation.Image{Channels: 1, Height: 100, Width: 100, Pixels: make([]float64, 100*100)}
	for i := range big.Pixels {
		big.Pixels[i] = imgs[0].Pixels[i%len(imgs[0].Pixels)]
	}
	bigCheck := checkBody(t, big)
	if len(bigCheck) <= limit {
		t.Fatalf("a %d-byte check is not over the %d-byte limit", len(bigCheck), limit)
	}
	malformedCheck := append([]byte("x"), bigCheck...)
	cut := func(prefix []byte) io.Reader {
		return io.MultiReader(bytes.NewReader(prefix), iotest.ErrReader(errors.New("connection reset by peer")))
	}
	const cutMsg = "reading request body: connection reset by peer"
	cases := []struct {
		name       string
		path       string
		body       func() io.Reader
		length     int // declared Content-Length
		wantStatus int
		wantMsg    string // "" means /v1/check's answer to overCheck
	}{
		{"canonical over the limit", "/v1/batch", func() io.Reader { return bytes.NewReader(overBatch) }, len(overBatch), http.StatusRequestEntityTooLarge, ""},
		{"malformed first image, over the limit", "/v1/batch", func() io.Reader { return bytes.NewReader(malformedOver) }, len(malformedOver), http.StatusRequestEntityTooLarge, ""},
		{"cut short", "/v1/batch", func() io.Reader { return cut(overBatch[:100_000]) }, len(overBatch), http.StatusBadRequest, cutMsg},
		{"malformed, then cut short", "/v1/batch", func() io.Reader { return cut(malformedOver[:100]) }, len(malformedOver), http.StatusBadRequest, cutMsg},
		{"no images", "/v1/batch", func() io.Reader { return strings.NewReader(`{"images":[]}`) }, len(`{"images":[]}`), http.StatusBadRequest, "batch request carries no images"},
		{"check: canonical over the limit", "/v1/check", func() io.Reader { return bytes.NewReader(bigCheck) }, len(bigCheck), http.StatusRequestEntityTooLarge, ""},
		{"check: malformed first byte, over the limit", "/v1/check", func() io.Reader { return bytes.NewReader(malformedCheck) }, len(malformedCheck), http.StatusRequestEntityTooLarge, ""},
		{"check: cut short", "/v1/check", func() io.Reader { return cut(bigCheck[:100_000]) }, len(bigCheck), http.StatusBadRequest, cutMsg},
		{"check: malformed, then cut short", "/v1/check", func() io.Reader { return cut(malformedCheck[:100]) }, len(malformedCheck), http.StatusBadRequest, cutMsg},
		{"check: empty", "/v1/check", func() io.Reader { return strings.NewReader("") }, 0, http.StatusBadRequest, "decoding check request: EOF"},
	}
	serveOne := func(path string, body io.Reader, length int) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, path, body)
		req.ContentLength = int64(length)
		if length < 0 {
			req.TransferEncoding = []string{"chunked"}
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	for _, chunked := range []bool{false, true} {
		declared := func(n int) int {
			if chunked {
				return -1
			}
			return n
		}
		checkRec := serveOne("/v1/check", bytes.NewReader(overCheck), declared(len(overCheck)))
		if checkRec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("chunked=%v: oversized /v1/check got %d, want 413", chunked, checkRec.Code)
		}
		for _, tc := range cases {
			rec := serveOne(tc.path, tc.body(), declared(tc.length))
			want := checkRec.Body.String()
			if tc.wantMsg != "" {
				b, _ := json.Marshal(map[string]string{"error": tc.wantMsg})
				want = string(b) + "\n"
			}
			if rec.Code != tc.wantStatus || rec.Body.String() != want {
				t.Errorf("chunked=%v, %s: got %d %q, want %d %q", chunked, tc.name, rec.Code, rec.Body.String(), tc.wantStatus, want)
			}
		}
	}
	// The decoder enforces the cap itself, not only through
	// http.MaxBytesReader.
	var mbe *http.MaxBytesError
	for _, body := range [][]byte{overBatch, malformedOver} {
		if _, _, err := decodeBatchStream(testStreams, bytes.NewReader(body), limit, nil, nil, nil); !errors.As(err, &mbe) {
			t.Errorf("decoding %d bytes under a %d-byte cap: %v, want an *http.MaxBytesError", len(body), limit, err)
		}
	}
	for _, body := range [][]byte{overCheck, bigCheck, malformedCheck} {
		if _, _, err := decodeCheckStream(testStreams, bytes.NewReader(body), limit, nil); !errors.As(err, &mbe) {
			t.Errorf("decoding a %d-byte check under a %d-byte cap: %v, want an *http.MaxBytesError", len(body), limit, err)
		}
	}
}

// TestBatchStreamPixelOwnership: streamed decoders sharing one pixel
// free list never see each other's pixels. Four goroutines decode
// canonical bodies and bodies that decline at image k ≥ 2 (a
// case-variant key the reference still accepts) through one list
// primed with NaN-filled slices, handing every image's pixels back
// after checking it. A fallback re-serializes its accepted images from
// their slices, so handing those back first lets another decode
// overwrite them mid-serialization: results differ, and -race reports
// the overlap. Alone, a fallback leaves exactly its k slices on the
// list.
func TestBatchStreamPixelOwnership(t *testing.T) {
	const px = 28 * 28
	imgs := digitImages(8)
	canonical := batchBody(t, imgs)
	declineAt := func(k int) []byte {
		body := bytes.Clone(canonical)
		body[nthIndex(body, `"channels"`, k)+1] = 'C'
		return body
	}
	bodies := [][]byte{canonical, declineAt(2), declineAt(5), declineAt(7)}
	type ref struct {
		imgs     []deepvalidation.Image
		explains []bool
	}
	refs := make([]ref, len(bodies))
	for i, body := range bodies {
		got, explains, err := referenceBatch(body)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref{got, explains}
	}

	free := primedFree(px, 2*len(imgs))
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for range 40 {
				i := rng.Intn(len(bodies))
				r := &chunkReader{data: bodies[i], max: 4096, rng: rng}
				got, explains, err := decodeBatchStream(testStreams, r, int64(len(bodies[i])), free, nil, nil)
				if d := diffDecoded(got, explains, err, refs[i].imgs, refs[i].explains, nil); d != "" {
					t.Errorf("goroutine %d, body %d: %s", g, i, d)
					return
				}
				for _, img := range got {
					free.put(img.Pixels, px)
				}
			}
		}()
	}
	wg.Wait()

	const k = 3
	free = primedFree(px, k)
	primed := make(map[*float64]bool, k)
	for _, xs := range free.stack {
		primed[&xs[:1][0]] = true
	}
	if _, _, err := decodeBatchStream(testStreams, bytes.NewReader(declineAt(k)), int64(len(canonical)), free, nil, nil); err != nil {
		t.Fatal(err)
	}
	if len(free.stack) != k {
		t.Fatalf("after a fallback at image %d the list holds %d slices, want %d", k, len(free.stack), k)
	}
	for _, xs := range free.stack {
		if !primed[&xs[:1][0]] {
			t.Fatalf("after a fallback the list holds a slice the accepted images did not use")
		}
	}
}

// TestStreamsFollowConcurrentDecodes: a stream is held for as long as
// its body is read from the connection, so a server keeps a window for
// each decode it ran at once, however few its CPUs. More checks than
// twice GOMAXPROCS are held open mid-body at once, each through its own
// pipe; once all have finished, the server's stream list must hold one
// stream per check, so the next burst that large takes every window
// from the list.
func TestStreamsFollowConcurrentDecodes(t *testing.T) {
	k := 2*runtime.GOMAXPROCS(0) + 2
	s, err := New(deepvalidation.NewHandle(loadDetector(t)), Config{Workers: 2, MaxBatch: k})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	h := s.Handler()
	imgs, _ := testImages(97, k)
	var wg sync.WaitGroup
	writers := make([]*io.PipeWriter, k)
	codes := make([]int, k)
	for i := range k {
		pr, pw := io.Pipe()
		writers[i] = pw
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/check", pr))
			codes[i] = rec.Code
		}()
	}
	bodies := make([][]byte, k)
	for i, pw := range writers {
		bodies[i] = checkBody(t, imgs[i])
		// A pipe write returns once the handler has read it, so its
		// decode holds a stream from here until its body ends.
		if _, err := pw.Write(bodies[i][:1]); err != nil {
			t.Fatal(err)
		}
	}
	for i, pw := range writers {
		if _, err := pw.Write(bodies[i][1:]); err != nil {
			t.Fatal(err)
		}
		pw.Close()
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("check %d = %d, want 200", i, code)
		}
	}
	held := 0
	for {
		if _, ok := s.streams.Get(); !ok {
			break
		}
		held++
	}
	if held != k {
		t.Errorf("after %d concurrent decodes the server holds %d streams, want %d", k, held, k)
	}
}
