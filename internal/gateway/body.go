package gateway

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"deepvalidation/internal/freelist"
)

// The gateway reads every request and every replica response whole.
// Fresh buffers for them cost the batch-fleet benchmark (32-image
// ~400 KB bodies) ~14 of its ~16.6 KiB allocated per image, so each
// proxied request runs on one pooled record (exchange) that carries
// both buffers, taken from a free list the Gateway owns. The list is
// small and bounded: every buffer it holds is live heap between
// requests, so it keeps at most freeListLen records and no buffer over
// freeBufMax; larger ones go to the GC.
const (
	freeListLen = 4
	freeBufMax  = 1 << 20
	// copyBufSize is the per-connection buffer upstream body writes are
	// copied through; it is the size io.Copy would allocate per call.
	copyBufSize = 32 << 10
)

// exchange is one proxied request's record: the request body, read
// whole, and the replica response of the hop that answered last. The
// transport may still be writing a forwarded body after RoundTrip
// returns (a replica can answer 429 before it reads), so the record is
// reference counted: the handler holds one reference for the whole
// request, every transport reader holds one until it is closed, and
// the last release puts the record back on the list. A reader the
// transport never closes keeps its reference, and the record then goes
// to the GC.
type exchange struct {
	free *freelist.List[*exchange]
	// state packs the record's generation (high 32 bits), advanced each
	// time the record is taken, and its reference count (low 32 bits).
	state atomic.Uint64
	body  []byte // the request body
	// getBody makes the transport readers of the current request: every
	// forward's body and GetBody. It is bound to the generation it was
	// made for, so a GetBody kept past its request cannot take the
	// record back, nor read a later request's body, once the record
	// has been recycled.
	getBody func() (io.ReadCloser, error)

	// The replica response: the handler's alone, never read by a
	// transport reader.
	status      int
	contentType string
	retryAfter  string
	traceID     string
	resp        []byte
}

// newExchangeFree returns the gateway's record list. Reset drops what
// a held record must not keep: the strings of its last response, which
// point into that response's header, and any buffer over freeBufMax.
func newExchangeFree() freelist.List[*exchange] {
	return freelist.List[*exchange]{Max: freeListLen, Reset: func(x *exchange) {
		x.status, x.contentType, x.retryAfter, x.traceID = 0, "", "", ""
		x.body, x.resp = keepable(x.body), keepable(x.resp)
	}}
}

// keepable returns b emptied, or nil when it is too large to hold.
func keepable(b []byte) []byte {
	if cap(b) > freeBufMax {
		return nil
	}
	return b[:0]
}

// takeExchange returns a record, from the free list when it holds one,
// in a new generation with the caller holding its one reference.
func (g *Gateway) takeExchange() *exchange {
	x, ok := g.exchanges.Get()
	if !ok {
		x = &exchange{free: &g.exchanges}
	}
	gen := uint32(x.state.Load()>>32) + 1
	x.state.Store(uint64(gen)<<32 | 1)
	x.getBody = func() (io.ReadCloser, error) { return x.reader(gen) }
	return x
}

// acquire takes a reference unless the record has left generation gen
// or its count already reached zero: either way it may belong to
// another request.
func (x *exchange) acquire(gen uint32) bool {
	for {
		s := x.state.Load()
		if uint32(s>>32) != gen || uint32(s) == 0 {
			return false
		}
		if x.state.CompareAndSwap(s, s+1) {
			return true
		}
	}
}

// release drops one reference; the last one puts the record back.
func (x *exchange) release() {
	if uint32(x.state.Add(^uint64(0))) == 0 {
		x.free.Put(x)
	}
}

// errBodyReleased is what a reader of a released body returns.
var errBodyReleased = errors.New("gateway: request body already released")

// reader returns a new reader over the body of generation gen that
// holds one reference until it is closed; through getBody it is the
// request body the transport gets for one hop, and what GetBody returns
// when the transport rewinds. It is the one object the gateway makes
// per hop: the transport may close a body more than once, at any time
// after RoundTrip, so a reader can never be handed out twice.
func (x *exchange) reader(gen uint32) (io.ReadCloser, error) {
	if !x.acquire(gen) {
		return nil, errBodyReleased
	}
	return &bodyReader{x: x}, nil
}

// bodyReader is one transport reader of an exchange's body. Its Close
// is idempotent and drops the reference. Read and Close exclude each
// other, so the transport closing the body while its write loop reads
// cannot recycle the record in the middle of a copy; a Read after
// Close fails.
type bodyReader struct {
	mu     sync.Mutex
	x      *exchange
	off    int
	closed bool
}

func (r *bodyReader) Read(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return 0, errBodyReleased
	}
	if r.off >= len(r.x.body) {
		return 0, io.EOF
	}
	n := copy(p, r.x.body[r.off:])
	r.off += n
	return n, nil
}

func (r *bodyReader) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.closed {
		r.closed = true
		r.x.release()
	}
	return nil
}

// copyConn is an upstream connection that copies the bodies written to
// it through one buffer it owns. The transport writes a known-length
// body as io.Copy from an io.LimitReader, which reaches the connection's
// ReadFrom; a plain *net.TCPConn would allocate a 32 KiB buffer there
// on every forward. The transport never writes to one connection from
// two goroutines at once, so one buffer per connection is enough.
type copyConn struct {
	net.Conn
	w   io.Writer // the connection without ReadFrom, so the copy uses buf
	buf []byte
}

// ReadFrom copies r to the connection through the connection's buffer,
// allocated on the first body it writes.
func (c *copyConn) ReadFrom(r io.Reader) (int64, error) {
	if c.buf == nil {
		c.buf = make([]byte, copyBufSize)
	}
	return io.CopyBuffer(c.w, r, c.buf)
}

// dialCopyConn is the gateway transport's DialContext: a plain dial
// whose connection is a copyConn.
func dialCopyConn(ctx context.Context, network, addr string) (net.Conn, error) {
	var d net.Dialer
	c, err := d.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	return &copyConn{Conn: c, w: struct{ io.Writer }{c}}, nil
}
