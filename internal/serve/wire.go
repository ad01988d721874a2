package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"strconv"
	"sync"

	"deepvalidation/internal/obs"
)

// Request bodies are the serving tiers' largest allocation: a 28×28
// check body is ~15 KB of JSON, a 32-image batch ~400 KB. This file
// reads each body into one buffer and, for bodies in the canonical form
// every client marshals, decodes it in one pass over those bytes with
// Pixels taken at its final length from the server's pixel free list.
// Anything else goes to the encoding/json reference decoder, which
// decides acceptance, writes every error message and allocates its own
// pixels.
//
// Body buffers of up to 64 KiB come from power-of-two size-class pools
// and go back through the release ReadBody returns. The reader owns the
// bytes until it calls release, and releasing is optional: a buffer
// never released is left to the GC. dvserve releases as soon as the
// body is decoded (neither decoder keeps a reference into it).
// dvgateway does not release: the transport may still read a forwarded
// body after the handler returns, so its bodies are left to the GC.
// Larger bodies (batches) are allocated per request and never pooled:
// an idle pooled buffer stays live heap and doubles in the GC goal,
// which raised batch-fleet's median RSS by 8% when ~400 KB batch bodies
// were pooled.
//
// Decoded pixel slices are the next largest allocation (8 bytes per
// value: 6,272 B for a 28×28 image) and come from pixelFree, a bounded
// free list each dvserve Server owns. The handler owns an image's
// pixels from decode until it hands them back, which it may do only once
// no batch worker can read them again: after it has received the
// verdict of every image in the request (runBatch reads no image after
// delivering its verdict), or when the request never reached the
// batcher (shed, or a shape mismatch). On the deadline path a worker
// may still be scoring the image, so those pixels, like dvgateway's
// bodies, are left to the GC.

// Pooled body size classes: 1 KiB << 0 .. 1 KiB << 6 (64 KiB).
const (
	minBodyShift = 10
	maxBodyShift = 16
)

// bodyBuf is one request-body buffer. release hands a pooled buffer
// back to its size class; for an unpooled one it does nothing.
type bodyBuf struct {
	b       []byte
	release func()
}

var bodyPools [maxBodyShift - minBodyShift + 1]sync.Pool

// takeBody returns an empty buffer with capacity at least n: pooled,
// with capacity exactly its size class, when n fits the largest class;
// otherwise freshly allocated at exactly n. Each pooled buffer carries
// its own release, made once, so recycling allocates nothing.
func takeBody(n int64) *bodyBuf {
	if n > 1<<maxBodyShift {
		return &bodyBuf{b: make([]byte, 0, n), release: func() {}}
	}
	c := max(bits.Len64(uint64(n-1))-minBodyShift, 0)
	if bb, _ := bodyPools[c].Get().(*bodyBuf); bb != nil {
		return bb
	}
	bb := &bodyBuf{b: make([]byte, 0, 1<<(c+minBodyShift))}
	bb.release = func() {
		bb.b = bb.b[:0]
		bodyPools[c].Put(bb)
	}
	return bb
}

// pixelFree is a free list of decoded pixel slices: a mutex-guarded
// stack holding at most limit slices, each of capacity n. A nil list
// holds nothing, so decoding through it always allocates. dvserve sizes
// limit to Config.MaxBatch, one full micro-batch: every slice held is
// live heap, and a list holding 256 slices raised batch-fleet's median
// RSS by 3% where one holding 32 raised it 1.4%.
type pixelFree struct {
	mu    sync.Mutex
	n     int
	limit int
	stack [][]float64
}

func newPixelFree(limit int) *pixelFree {
	return &pixelFree{limit: limit, stack: make([][]float64, 0, limit)}
}

// take returns an empty slice with capacity n: a held one if the list
// holds slices of that capacity, otherwise a new one. The caller must
// overwrite every element it reads back; a held slice keeps the values
// of its last user.
func (f *pixelFree) take(n int) []float64 {
	if f != nil {
		f.mu.Lock()
		if k := len(f.stack); k > 0 && f.n == n {
			xs := f.stack[k-1]
			f.stack[k-1] = nil
			f.stack = f.stack[:k-1]
			f.mu.Unlock()
			return xs[:0]
		}
		f.mu.Unlock()
	}
	return make([]float64, 0, n)
}

// put hands xs back once no one reads or writes it any more. It is
// kept only if its capacity is n, the serving detector's input length,
// and the list has room. A list holding another length is emptied
// first, so after a reload changes the input shape the old slices go to
// the GC instead of occupying the list.
func (f *pixelFree) put(xs []float64, n int) {
	if n <= 0 || cap(xs) != n {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.n != n {
		clear(f.stack)
		f.stack = f.stack[:0]
		f.n = n
	}
	if len(f.stack) < f.limit {
		f.stack = append(f.stack, xs)
	}
}

// ReadBody reads a request body of at most limit bytes through
// http.MaxBytesReader, answering 413 (oversized) or 400 (transport
// error) itself. The boolean reports success. It is the body read of
// both serving tiers, so dvserve and dvgateway refuse a body with the
// same status and message. On success the caller may call release
// once, after the last read of body, to recycle a body of up to 64 KiB
// into its pool; a caller that cannot tell when the last read happens
// skips it and leaves the buffer to the GC.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64) (body []byte, release func(), ok bool) {
	bb := takeBody(initialSize(r.ContentLength, limit))
	body, err := readAll(http.MaxBytesReader(w, r.Body, limit), bb.b, limit, func(buf []byte, size int64) []byte {
		next := takeBody(size)
		next.b = append(next.b, buf...)
		bb.release()
		bb = next
		return next.b
	})
	if err != nil {
		bb.release()
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			obs.WriteError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", limit))
		} else {
			obs.WriteError(w, http.StatusBadRequest, "reading request body: "+err.Error())
		}
		return nil, nil, false
	}
	return body, bb.release, true
}

// ReadLimited reads r to EOF into one buffer. A non-negative sizeHint
// (a declared Content-Length) sizes the buffer once at
// min(sizeHint, limit)+1 bytes — the extra byte lets the read see EOF
// without growing; with no hint (-1) the buffer starts small and
// doubles, never past limit+1. More than limit bytes fail with an
// *http.MaxBytesError, so no read allocates more than limit+1 bytes
// (limit must be below math.MaxInt64).
func ReadLimited(r io.Reader, sizeHint, limit int64) ([]byte, error) {
	return readAll(r, make([]byte, 0, initialSize(sizeHint, limit)), limit, func(buf []byte, size int64) []byte {
		grown := make([]byte, len(buf), size)
		copy(grown, buf)
		return grown
	})
}

// initialSize is the first buffer size for a body of sizeHint bytes
// (-1 when unknown) under limit.
func initialSize(sizeHint, limit int64) int64 {
	size := int64(512)
	if sizeHint >= 0 {
		size = sizeHint
	}
	return min(size, limit) + 1
}

// readAll reads r to EOF, appending to buf. When buf is full, grow must
// return a buffer holding buf's bytes with capacity at least size
// (double the old capacity, at most limit+1). No read goes past limit+1
// bytes, even into spare capacity, and more than limit bytes fail with
// an *http.MaxBytesError.
func readAll(r io.Reader, buf []byte, limit int64, grow func(buf []byte, size int64) []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = grow(buf, min(2*int64(cap(buf)), limit+1))
		}
		n, err := r.Read(buf[len(buf):min(int64(cap(buf)), limit+1)])
		buf = buf[:len(buf)+n]
		if int64(len(buf)) > limit {
			return nil, &http.MaxBytesError{Limit: limit}
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// decodeStrict is the reference decoder: encoding/json with unknown
// fields rejected and nothing but JSON whitespace allowed after the
// value. (json.Decoder.More is not that test: it reports false before
// a stray ']' or '}'.) what names the request kind in error messages.
func decodeStrict(data []byte, what string, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding %s request: %w", what, err)
	}
	if len(bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")) != 0 {
		return fmt.Errorf("decoding %s request: trailing data after JSON object", what)
	}
	return nil
}

// The canonical-form scanner accepts a subset of what decodeStrict
// accepts and never reports an error: it either returns exactly the
// value decodeStrict would (pixels bit-equal — numbers go through the
// same strconv.ParseFloat call encoding/json makes) or declines. It
// accepts only exact lowercase keys without escapes, each at most once;
// JSON integers for the dimensions; true or false for explain; JSON
// whitespace; and nothing after the object. Case-variant or escaped
// keys, duplicates, null, out-of-range numbers, unknown keys and
// malformed input all decline, leaving the verdict and the message to
// the reference.

// scanCheckRequest scans a check-request body in canonical form,
// taking its pixel slice from free. A body declined after the slice was
// taken leaves it to the GC.
func scanCheckRequest(data []byte, free *pixelFree) (CheckRequest, bool) {
	s := scanner{data: data, free: free}
	var req CheckRequest
	ok := s.checkRequest(&req) && s.end()
	return req, ok
}

// scanBatchRequest scans a batch-request body in canonical form, taking
// every image's pixel slice from free.
func scanBatchRequest(data []byte, free *pixelFree) (BatchRequest, bool) {
	s := scanner{data: data, free: free}
	var req BatchRequest
	ok := s.batchRequest(&req) && s.end()
	return req, ok
}

// scanner is a cursor over one request body. Every method returns false
// to decline; the cursor is then meaningless.
type scanner struct {
	data []byte
	i    int
	free *pixelFree // where pixel slices come from
}

func (s *scanner) skipSpace() {
	for s.i < len(s.data) {
		switch s.data[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// consume skips whitespace and then c, reporting whether c was next.
func (s *scanner) consume(c byte) bool {
	s.skipSpace()
	if s.i < len(s.data) && s.data[s.i] == c {
		s.i++
		return true
	}
	return false
}

// end reports whether only whitespace remains.
func (s *scanner) end() bool {
	s.skipSpace()
	return s.i == len(s.data)
}

// object scans one JSON object, handing each key to field, which must
// consume the value. The key aliases the body; field matches it as
// bytes, so no key string is ever built.
func (s *scanner) object(field func(key []byte) bool) bool {
	if !s.consume('{') {
		return false
	}
	if s.consume('}') {
		return true
	}
	for {
		if !s.consume('"') {
			return false
		}
		n := bytes.IndexByte(s.data[s.i:], '"')
		if n < 0 {
			return false
		}
		key := s.data[s.i : s.i+n]
		s.i += n + 1
		if bytes.IndexByte(key, '\\') >= 0 || !s.consume(':') || !field(key) {
			return false
		}
		if !s.consume(',') {
			return s.consume('}')
		}
	}
}

// once marks bit in seen, declining a key seen before.
func once(seen *uint8, bit uint8) bool {
	if *seen&bit != 0 {
		return false
	}
	*seen |= bit
	return true
}

func (s *scanner) checkRequest(req *CheckRequest) bool {
	var seen uint8
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "channels":
			return once(&seen, 1) && s.integer(&req.Channels)
		case "height":
			return once(&seen, 2) && s.integer(&req.Height)
		case "width":
			return once(&seen, 4) && s.integer(&req.Width)
		case "pixels":
			return once(&seen, 8) && s.floats(&req.Pixels)
		case "explain":
			return once(&seen, 16) && s.boolean(&req.Explain)
		}
		return false
	})
}

func (s *scanner) batchRequest(req *BatchRequest) bool {
	var seen uint8
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "images":
			return once(&seen, 1) && s.images(&req.Images)
		case "explain":
			return once(&seen, 2) && s.boolean(&req.Explain)
		}
		return false
	})
}

// array scans one JSON array, calling elem for each element; elem must
// consume it.
func (s *scanner) array(elem func() bool) bool {
	if !s.consume('[') {
		return false
	}
	if s.consume(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !s.consume(',') {
			return s.consume(']')
		}
	}
}

// images scans an array of check-request objects.
func (s *scanner) images(out *[]CheckRequest) bool {
	return s.array(func() bool {
		var r CheckRequest
		if !s.checkRequest(&r) {
			return false
		}
		*out = append(*out, r)
		return true
	})
}

// floats scans an array of JSON numbers in two passes: the first, on a
// copy of the cursor, checks the grammar and counts, so the slice is
// taken once at its final length; the second parses, appending every
// element, so a recycled slice keeps none of its old values.
func (s *scanner) floats(out *[]float64) bool {
	c, n := *s, 0
	if !c.array(func() bool { n++; return c.number() != nil }) {
		return false
	}
	xs := s.free.take(n)
	ok := s.array(func() bool {
		lit := s.number()
		if lit == nil {
			return false
		}
		v, err := strconv.ParseFloat(string(lit), 64)
		xs = append(xs, v)
		return err == nil
	})
	*out = xs
	return ok
}

// integer scans a JSON integer that fits an int, parsed as
// encoding/json parses it.
func (s *scanner) integer(out *int) bool {
	lit := s.number()
	if lit == nil || bytes.ContainsAny(lit, ".eE") {
		return false
	}
	n, err := strconv.ParseInt(string(lit), 10, 64)
	if err != nil || int64(int(n)) != n {
		return false
	}
	*out = int(n)
	return true
}

func (s *scanner) boolean(out *bool) bool {
	s.skipSpace()
	rest := s.data[s.i:]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		*out = true
		s.i += 4
	case bytes.HasPrefix(rest, []byte("false")):
		*out = false
		s.i += 5
	default:
		return false
	}
	return true
}

// number skips whitespace and scans one number literal of RFC 8259's
// grammar (which strconv alone would widen: it also takes "+1", ".5",
// "0x1p3", "Inf"), returning its bytes, or nil if none starts here.
func (s *scanner) number() []byte {
	s.skipSpace()
	d, start := s.data, s.i
	i := start
	digits := func() bool {
		j := i
		for i < len(d) && d[i] >= '0' && d[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(d) && d[i] == '-' {
		i++
	}
	if i < len(d) && d[i] == '0' {
		i++
	} else if !digits() {
		return nil
	}
	if i < len(d) && d[i] == '.' {
		i++
		if !digits() {
			return nil
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if !digits() {
			return nil
		}
	}
	s.i = i
	return d[start:i]
}
