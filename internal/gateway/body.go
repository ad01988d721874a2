package gateway

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// The gateway reads every request and every replica response whole.
// Fresh buffers for them cost the batch-fleet benchmark (32-image
// ~400 KB bodies) ~14 of its ~16.6 KiB allocated per image, so the
// gateway recycles them through two free lists it owns, one for request
// bodies and one for replica responses. A list is small and bounded:
// every buffer it holds is live heap between requests, so it keeps at
// most freeListLen of them and none over freeBufMax; larger ones go to
// the GC.
const (
	freeListLen = 4
	freeBufMax  = 1 << 20
	// copyBufSize is the per-connection buffer upstream body writes are
	// copied through; it is the size io.Copy would allocate per call.
	copyBufSize = 32 << 10
)

// bufFree is a bounded free list of byte buffers.
type bufFree struct {
	mu   sync.Mutex
	bufs [][]byte
}

// get takes the largest held buffer, the most recently returned among
// equals, or returns nil when the list is empty. A read too large for
// it allocates a larger buffer and drops this one, so the larger buffer
// finds room when it comes back.
func (f *bufFree) get() []byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	k := len(f.bufs)
	if k == 0 {
		return nil
	}
	largest := 0
	for i, b := range f.bufs {
		if cap(b) >= cap(f.bufs[largest]) {
			largest = i
		}
	}
	b := f.bufs[largest]
	f.bufs[largest] = f.bufs[k-1]
	f.bufs[k-1] = nil
	f.bufs = f.bufs[:k-1]
	return b[:0]
}

// put hands back a buffer no one reads or writes any more. It is kept
// only if it is at most freeBufMax bytes and the list has room.
func (f *bufFree) put(b []byte) {
	if cap(b) > freeBufMax {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.bufs) < freeListLen {
		f.bufs = append(f.bufs, b)
	}
}

// sharedBody is a request body read into a buffer from the gateway's
// free list and forwarded on one or more hops. The transport may still
// be writing a forwarded body after Do returns (a replica can answer 429
// before it reads), so the buffer is reference counted: the handler
// holds one reference for the whole request, every transport reader
// holds one until it is closed, and the last release puts the buffer
// back on the list. A reader the transport never closes keeps its
// reference, and the buffer then goes to the GC.
type sharedBody struct {
	buf  []byte
	refs atomic.Int32
	free *bufFree
}

// newSharedBody wraps buf, with the caller holding the one reference.
func newSharedBody(buf []byte, free *bufFree) *sharedBody {
	b := &sharedBody{buf: buf, free: free}
	b.refs.Store(1)
	return b
}

// acquire takes a reference unless the count already reached zero and
// the buffer may belong to someone else.
func (b *sharedBody) acquire() bool {
	for {
		n := b.refs.Load()
		if n <= 0 {
			return false
		}
		if b.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// release drops one reference; the last one puts the buffer back.
func (b *sharedBody) release() {
	if b.refs.Add(-1) == 0 {
		b.free.put(b.buf)
	}
}

// errBodyReleased is what a reader of a released body returns.
var errBodyReleased = errors.New("gateway: request body already released")

// reader returns a new reader over the body that holds one reference
// until it is closed; it is the request body the transport gets for one
// hop, and what GetBody returns when the transport rewinds.
func (b *sharedBody) reader() (io.ReadCloser, error) {
	if !b.acquire() {
		return nil, errBodyReleased
	}
	r := &bodyReader{body: b}
	r.r.Reset(b.buf)
	return r, nil
}

// bodyReader is one transport reader of a sharedBody. Its Close is
// idempotent and drops the reference. Read and Close exclude each other,
// so the transport closing the body while its write loop reads cannot
// recycle the buffer in the middle of a copy; a Read after Close fails.
type bodyReader struct {
	mu     sync.Mutex
	r      bytes.Reader
	body   *sharedBody
	closed bool
}

func (r *bodyReader) Read(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return 0, errBodyReleased
	}
	return r.r.Read(p)
}

func (r *bodyReader) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.closed {
		r.closed = true
		r.body.release()
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
