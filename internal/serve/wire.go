package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"deepvalidation"
	"deepvalidation/internal/obs"
)

// Request bodies are the serving tiers' largest allocation: a 28×28
// check body is ~15 KB of JSON, a 32-image batch ~400 KB. dvserve never
// holds a whole body. Both endpoints decode from the connection through
// one 64 KiB window (decodeCheckStream, decodeBatchStream): a check is
// one image object, a batch an array of them, scanned one image at a
// time. For bodies in the canonical form every client marshals, the
// scanner decodes in one pass with Pixels taken at their final length
// from the server's pixel free list. Any other body is rebuilt into one
// that decodes exactly like the body the client sent and handed to the
// encoding/json reference decoder, which decides acceptance, writes
// every error message and allocates its own pixels.
//
// The window and the decoder state around it come from one pool of
// stream values, so a warm decode allocates neither. A window that grew
// past 64 KiB (one image's JSON larger than it) is left to the GC.
// Pooling whole bodies was measured and rejected: an idle pooled buffer
// stays live heap and doubles in the GC goal, and holding ~400 KB batch
// bodies raised batch-fleet's median RSS by 7-8%.
//
// dvgateway does read each body whole (ReadBody), into a buffer sized
// from its Content-Length or one from its own free list when that is
// large enough; it recycles the buffer once the last transport reader
// has let go of it. Both tiers answer a body they cannot read through
// writeBodyError, so they refuse it with the same status and message.
//
// Decoded pixel slices are the next largest allocation (8 bytes per
// value: 6,272 B for a 28×28 image) and come from pixelFree, a bounded
// free list each dvserve Server owns. The handler owns an image's
// pixels from decode until it hands them back, which it may do only once
// no batch worker can read them again: after it has received the
// verdict of every image in the request (runBatch reads no image after
// delivering its verdict), or when the request never reached the
// batcher (shed, or a shape mismatch). On the deadline path a worker
// may still be scoring the image, so those pixels are left to the GC.

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

// giveBack hands back a slice take returned that no caller has seen.
// Unlike put it never changes the length the list holds: xs is kept
// only if its capacity is that length and the list has room.
func (f *pixelFree) giveBack(xs []float64) {
	if f == nil || cap(xs) == 0 {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if cap(xs) == f.n && len(f.stack) < f.limit {
		f.stack = append(f.stack, xs)
	}
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
// http.MaxBytesReader into one buffer (buf when it is large enough, see
// ReadLimited), answering 413 (oversized) or 400 (transport error)
// itself. The boolean reports success. It is dvgateway's body read; its
// errors go through the writer dvserve's streamed decoders use, so both
// tiers refuse a body alike.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64, buf []byte) ([]byte, bool) {
	body, err := ReadLimited(http.MaxBytesReader(w, r.Body, limit), r.ContentLength, limit, buf)
	if err != nil {
		writeBodyError(w, readError(err), limit)
		return nil, false
	}
	return body, true
}

// readError marks err as a failure to read the request body rather than
// to decode it.
func readError(err error) error {
	return fmt.Errorf("reading request body: %w", err)
}

// writeBodyError answers a request whose body could not be read or
// decoded: 413 when it exceeds limit, 400 with the error's text
// otherwise.
func writeBodyError(w http.ResponseWriter, err error, limit int64) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		obs.WriteError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", limit))
		return
	}
	obs.WriteError(w, http.StatusBadRequest, err.Error())
}

// ReadLimited reads r to EOF into one buffer. A non-negative sizeHint
// (a declared Content-Length) sizes the buffer once at
// min(sizeHint, limit)+1 bytes — the extra byte lets the read see EOF
// without growing; with no hint (-1) the buffer starts at 512 bytes and
// doubles, never past limit+1. When buf's capacity is at least that
// starting size, the read starts in buf instead of a new buffer, and
// the result shares buf's array unless the read outgrew it. No read
// goes past limit+1 bytes, even into spare capacity, and more than
// limit bytes fail with an *http.MaxBytesError, so no read allocates
// more than limit+1 bytes (limit must be below math.MaxInt64).
func ReadLimited(r io.Reader, sizeHint, limit int64, buf []byte) ([]byte, error) {
	size := int64(512)
	if sizeHint >= 0 {
		size = sizeHint
	}
	if start := min(size, limit) + 1; int64(cap(buf)) >= start {
		buf = buf[:0]
	} else {
		buf = make([]byte, 0, start)
	}
	for {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), min(2*int64(cap(buf)), limit+1))
			copy(grown, buf)
			buf = grown
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

// scanner is a cursor over a request body, or over a window of one
// whose end is not the body's end (more). Every method returns false to
// decline; the cursor is then meaningless. A method that declines
// because it reached the end of the data while more is set also sets
// short: a longer window might let it accept, so the caller refills and
// rescans rather than declining. Without more, short is never set.
type scanner struct {
	data  []byte
	i     int
	free  *pixelFree // where pixel slices come from
	more  bool       // more input may follow data
	short bool
}

// shortAt reports whether position i lies at or past the end of the
// data while more input may follow, and if so marks the scan short.
func (s *scanner) shortAt(i int) bool {
	if i >= len(s.data) && s.more {
		s.short = true
		return true
	}
	return false
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
	s.shortAt(s.i)
	return false
}

// end reports whether only whitespace remains.
func (s *scanner) end() bool {
	s.skipSpace()
	return !s.shortAt(s.i) && s.i == len(s.data)
}

// key scans an object key and the colon after it. The key aliases the
// data; callers match it as bytes, so no key string is ever built.
func (s *scanner) key() ([]byte, bool) {
	if !s.consume('"') {
		return nil, false
	}
	n := bytes.IndexByte(s.data[s.i:], '"')
	if n < 0 {
		s.shortAt(len(s.data))
		return nil, false
	}
	key := s.data[s.i : s.i+n]
	s.i += n + 1
	return key, bytes.IndexByte(key, '\\') < 0 && s.consume(':')
}

// object scans one JSON object, handing each key to field, which must
// consume the value.
func (s *scanner) object(field func(key []byte) bool) bool {
	if !s.consume('{') {
		return false
	}
	if s.consume('}') {
		return true
	}
	for {
		key, ok := s.key()
		if !ok || !field(key) {
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

// image scans one check-request object. An image it does not accept
// hands its pixel slice back: no caller ever sees it.
func (s *scanner) image(req *CheckRequest) bool {
	if s.checkRequest(req) {
		return true
	}
	s.free.giveBack(req.Pixels)
	return false
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

// floats scans an array of JSON numbers in two passes: the first, on a
// copy of the cursor, checks the grammar and counts, so the slice is
// taken once at its final length; the second parses, appending every
// element, so a recycled slice keeps none of its old values.
func (s *scanner) floats(out *[]float64) bool {
	c, n := *s, 0
	if !c.array(func() bool { n++; return c.number() != nil }) {
		s.short = c.short
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
		// Fewer than five bytes left may be a cut "true" or "false".
		s.shortAt(s.i + 4)
		return false
	}
	return true
}

// number skips whitespace and scans one number literal, returning its
// bytes, or nil if none starts here. A literal running to the end of
// the data is short when more may follow: the next bytes could extend
// it.
func (s *scanner) number() []byte {
	s.skipSpace()
	start := s.i
	end, ok := numberEnd(s.data, start)
	if s.shortAt(end) || !ok {
		return nil
	}
	s.i = end
	return s.data[start:end]
}

// numberEnd scans a number literal of RFC 8259's grammar (which strconv
// alone would widen: it also takes "+1", ".5", "0x1p3", "Inf") from
// d[i], returning where the literal ends and whether there is one. On
// failure the index is where the scan stopped.
func numberEnd(d []byte, i int) (int, bool) {
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
		return i, false
	}
	if i < len(d) && d[i] == '.' {
		i++
		if !digits() {
			return i, false
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if !digits() {
			return i, false
		}
	}
	return i, true
}

// windowSize is the pooled decode window's capacity. maxPooledImages
// bounds the image list a pooled stream keeps: the default
// Config.QueueDepth, beyond which dvserve refuses a batch anyway.
const (
	windowSize      = 64 << 10
	maxPooledImages = 256
)

// streams holds idle stream values, each with an empty window of
// windowSize bytes.
var streams = sync.Pool{New: func() any { return &stream{buf: make([]byte, 0, windowSize)} }}

// decodeCheckStream decodes a check-request body from r exactly as
// decodeStrict and Validate decode the whole body; see stream.check.
func decodeCheckStream(r io.Reader, limit int64, free *pixelFree) (deepvalidation.Image, bool, error) {
	st := streams.Get().(*stream)
	defer st.recycle()
	return st.check(r, limit, free)
}

// decodeBatchStream decodes a batch-request body from r exactly as
// decodeStrict and batchImages decode the whole body; see stream.batch.
func decodeBatchStream(r io.Reader, limit int64, free *pixelFree) ([]deepvalidation.Image, []bool, error) {
	st := streams.Get().(*stream)
	defer st.recycle()
	return st.batch(r, limit, free)
}

// stream is one streamed decode: the window over a body, the scanner's
// cursor and what the scan has accepted. r must end after at most limit
// bytes; more fail with an *http.MaxBytesError. A read error is
// returned wrapped by readError, and before any decode error: every
// body is read to EOF before it is judged.
//
// The window holds the input from the commit point, where the
// undecoded input starts: for a batch after `{"images":[`, then before
// or after each image. A scan that comes up short moves the bytes from
// the commit point to the front, reads until the window is full or the
// body ends, and rescans from the commit point; the window grows only
// while one image's JSON is larger than it. A window of a few bytes
// makes almost every scan come up short, which is how the tests drive
// the refill path with small bodies. A scan that declines hands the
// body, rebuilt, to decodeStrict.
type stream struct {
	r      io.Reader
	limit  int64
	read   int64 // bytes read from r
	more   bool  // r has not reported EOF
	err    error // a read error, which ends the decode
	free   *pixelFree
	buf    []byte // the window: buf[commit:] is undecoded input
	commit int
	s      scanner // the cursor step hands to scan; a local one would escape to the heap on every step

	// The consumed input of a batch, as rebuild writes it back:
	// `{"images":[` when head, then each accepted image and the
	// separator after it, which is `]` when closed and a comma
	// otherwise. req.Explain is set only on acceptance.
	head, closed bool
	req          BatchRequest
}

// start readies st, empty but for its window's and request's capacity,
// to decode from r.
func (st *stream) start(r io.Reader, limit int64, free *pixelFree) {
	*st = stream{r: r, limit: limit, more: true, free: free, buf: st.buf[:0], req: BatchRequest{Images: st.req.Images[:0]}}
}

// recycle drops st's references to the request and puts it back in the
// pool, unless its window grew or its image list outgrew
// maxPooledImages.
func (st *stream) recycle() {
	if cap(st.buf) != windowSize || cap(st.req.Images) > maxPooledImages {
		return
	}
	clear(st.req.Images)
	st.start(nil, 0, nil)
	streams.Put(st)
}

// check decodes a check-request body, rejecting what decodeStrict
// rejects and an image that fails Validate. JSON cannot carry NaN/Inf
// literals, so accepted pixel values are always finite; Validate
// enforces it regardless. The boolean is the request's Explain flag.
func (st *stream) check(r io.Reader, limit int64, free *pixelFree) (deepvalidation.Image, bool, error) {
	st.start(r, limit, free)
	var req CheckRequest
	if !st.scanCheck(&req) {
		var ref CheckRequest
		if err := st.fallback("check", &ref); err != nil {
			return deepvalidation.Image{}, false, err
		}
		req = ref
	}
	img := req.image()
	if err := img.Validate(); err != nil {
		return deepvalidation.Image{}, false, err
	}
	return img, req.Explain, nil
}

// batch decodes a batch-request body one image at a time, validating
// every member image.
func (st *stream) batch(r io.Reader, limit int64, free *pixelFree) ([]deepvalidation.Image, []bool, error) {
	st.start(r, limit, free)
	if st.scan() {
		return batchImages(st.req)
	}
	var ref BatchRequest
	if err := st.fallback("batch", &ref); err != nil {
		return nil, nil, err
	}
	return batchImages(ref)
}

// fallback decodes the body a scan declined with decodeStrict into v,
// naming the request kind what in its errors. It first reads the rest
// of the body, so a read error, wrapped by readError, comes before any
// decode error.
func (st *stream) fallback(what string, v any) error {
	var body []byte
	if st.err == nil {
		body, st.err = st.rebuild()
	}
	// Only now, with every accepted image re-serialized, may another
	// request take their pixel slices.
	for _, img := range st.req.Images {
		st.free.giveBack(img.Pixels)
	}
	if st.err != nil {
		return readError(st.err)
	}
	return decodeStrict(body, what, v)
}

// scanCheck decodes a check body through the window into req in one
// step, reporting whether the scanner accepted all of it: one image
// object, then the end of the body. An image followed by anything else
// hands its pixel slice back.
func (st *stream) scanCheck(req *CheckRequest) bool {
	return st.step(func(s *scanner) bool {
		*req = CheckRequest{}
		if !s.image(req) {
			return false
		}
		if s.end() {
			return true
		}
		s.free.giveBack(req.Pixels)
		return false
	})
}

// scan decodes a batch body through the window, reporting whether the
// scanner accepted all of it. On false, either err is set or the commit
// point is where the scanner declined. An empty images array declines
// too, and the fallback refuses it with batchImages' error.
func (st *stream) scan() bool {
	st.head = st.step(func(s *scanner) bool {
		if !s.consume('{') {
			return false
		}
		key, ok := s.key()
		return ok && string(key) == "images" && s.consume('[')
	})
	if !st.head {
		return false
	}
	for !st.closed {
		// One image and the comma or ']' after it. An image whose
		// separator is cut off or wrong hands its pixel slice back.
		var img CheckRequest
		if !st.step(func(s *scanner) bool {
			img = CheckRequest{}
			if !s.image(&img) {
				return false
			}
			if s.consume(',') {
				return true
			}
			if st.closed = s.consume(']'); !st.closed {
				s.free.giveBack(img.Pixels)
			}
			return st.closed
		}) {
			return false
		}
		st.req.Images = append(st.req.Images, img)
	}
	return st.step(func(s *scanner) bool {
		st.req.Explain = false
		if s.consume(',') {
			key, ok := s.key()
			if !ok || string(key) != "explain" || !s.boolean(&st.req.Explain) {
				return false
			}
		}
		return s.consume('}') && s.end()
	})
}

// step runs scan over the window from the commit point, refilling and
// rescanning while it comes up short. On acceptance the commit point
// moves past what scan consumed. It reports false when scan declines or
// a read fails.
func (st *stream) step(scan func(s *scanner) bool) bool {
	for {
		st.s = scanner{data: st.buf, i: st.commit, free: st.free, more: st.more}
		if scan(&st.s) {
			st.commit = st.s.i
			return true
		}
		if !st.s.short || !st.refill() {
			return false
		}
	}
}

// refill moves the undecoded input to the front of the window, growing
// the window if that input fills it, and reads until the window is full
// or the body ends. It reports false on a read error.
func (st *stream) refill() bool {
	n := copy(st.buf[:cap(st.buf)], st.buf[st.commit:])
	st.buf, st.commit = st.buf[:n], 0
	if n == cap(st.buf) {
		grown := make([]byte, n, min(2*int64(n), st.limit+1))
		copy(grown, st.buf)
		st.buf = grown
	}
	for st.more && len(st.buf) < cap(st.buf) {
		b := st.buf
		room := min(int64(cap(b)-len(b)), st.limit+1-st.read)
		m, err := st.r.Read(b[len(b) : len(b)+int(room)])
		st.buf, st.read = b[:len(b)+m], st.read+int64(m)
		if st.read > st.limit {
			err = &http.MaxBytesError{Limit: st.limit}
		}
		st.more = err == nil
		if err != io.EOF {
			st.err = err
		}
	}
	return st.err == nil
}

// rebuild returns a body that decodes exactly as the one being read:
// the accepted images re-serialized in place of the input they were
// decoded from, then the window from the commit point, then the rest of
// the body, read to EOF under the same cap. It must be called before the
// accepted images' pixel slices go back to the free list.
func (st *stream) rebuild() ([]byte, error) {
	var rest []byte
	if st.more {
		var err error
		if rest, err = ReadLimited(st.r, -1, st.limit-st.read, nil); err != nil {
			return nil, err
		}
	}
	var body []byte
	if st.head {
		body = append(body, `{"images":[`...)
		for i, img := range st.req.Images {
			if i > 0 {
				body = append(body, ',')
			}
			body = appendImage(body, img)
		}
		switch {
		case st.closed:
			body = append(body, ']')
		case len(st.req.Images) > 0:
			body = append(body, ',')
		}
	}
	body = append(body, st.buf[st.commit:]...)
	return append(body, rest...), nil
}

// appendImage appends req in canonical form. The reference decoder
// reads it back to req exactly: AppendFloat's shortest form parses back
// to the same bits, and a field left out decodes as its zero value, so
// only the pixels (nil when the scanner did not see them; take never
// returns nil) and a true explain flag need to be written when present.
func appendImage(b []byte, req CheckRequest) []byte {
	b = append(b, `{"channels":`...)
	b = strconv.AppendInt(b, int64(req.Channels), 10)
	b = append(b, `,"height":`...)
	b = strconv.AppendInt(b, int64(req.Height), 10)
	b = append(b, `,"width":`...)
	b = strconv.AppendInt(b, int64(req.Width), 10)
	if req.Pixels != nil {
		b = append(b, `,"pixels":[`...)
		for i, v := range req.Pixels {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
		}
		b = append(b, ']')
	}
	if req.Explain {
		b = append(b, `,"explain":true`...)
	}
	return append(b, '}')
}
