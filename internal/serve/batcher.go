package serve

import (
	"context"
	"slices"
	"time"

	"deepvalidation"
	"deepvalidation/internal/faultinject"
	"deepvalidation/internal/freelist"
	"deepvalidation/internal/trace"
)

// result is the batcher's answer to one member of an admitted request:
// i is the member's index in its request. d is the per-layer detail,
// present only when this request (or the server's flight recorder /
// drift watch) asked for it.
type result struct {
	i   int
	v   deepvalidation.Verdict
	err error
	d   *deepvalidation.Detail
}

// reqTrace carries one traced request's stage timestamps through the
// batcher. The handler writes id/t0/enq before enqueueing; the batcher
// goroutine writes deq/scoreStart/scoreEnd; the handler reads them only
// after receiving the member's result (the channel receive is the
// happens-before edge), and never on the deadline path.
type reqTrace struct {
	id                   string
	t0, enq, deq         time.Time
	scoreStart, scoreEnd time.Time
}

// pending is one member of an admitted request waiting for a verdict:
// image i of its request rq. d is the member's per-layer detail, which
// runBatch fills when something will read it, into PerLayer storage
// the member keeps from one request to the next.
type pending struct {
	rq *request
	i  int
	tr *reqTrace // non-nil when this request is traced
	d  deepvalidation.Detail
}

// request is the record of one request: its decoded images and
// members, the result channel they share, what tells a batch worker
// whether a member is still worth scoring (the request's deadline and
// its client's context, held once per request), and the storage its
// handler answers from. done is buffered to the member count, so a
// worker never blocks delivering, even to a handler that already gave
// up. Each result carries the member's index i, because members scored
// in different micro-batches may answer out of order.
//
// Records come from the server's free list (newRequestFree) before the
// body is decoded, and every slice in one is reused by the next request
// that takes it, so a warm request allocates none of them. A record
// goes back, with its images' pixels, only through release: after the
// handler has received the result of every member, or when the request
// was never enqueued. runBatch therefore never touches a member after
// sending its result, in the batch path and in the per-request
// fallback alike. A handler that stops waiting (deadline, client gone,
// an error answer) leaves the record to the GC, so a late verdict can
// only land in a channel no other request reads.
type request struct {
	imgs     []deepvalidation.Image // the decoded images, one per member
	explains []bool                 // explains[i]: image i asked for per-layer discrepancies
	members  []pending
	done     chan result
	deadline time.Time
	client   context.Context // the HTTP request's context: done once the client has gone
	timer    *time.Timer     // fires at the deadline; kept with the record

	// early and arrived are await's buffers: early[i] holds member i's
	// result when arrived[i].
	early   []result
	arrived []bool
	// resp is the answer: handleBatch writes all of it, handleCheck its
	// one verdict. WriteJSON gets a pointer into the record, so the
	// answer is never boxed.
	resp BatchResponse
}

// expired reports whether the handler has stopped waiting for rq, or
// will: its deadline has passed or its client has gone.
func (rq *request) expired(now time.Time) bool {
	return !now.Before(rq.deadline) || rq.client.Err() != nil
}

// admit readies rq, holding its decoded images, to be enqueued for a
// request from client: one member and one verdict per image, room in
// done for every result, and a deadline timeout from now. rq is new or
// was reset on its way back to the free list, so its members carry
// nothing of an earlier request but their PerLayer storage.
func (rq *request) admit(client context.Context, timeout time.Duration) {
	n := len(rq.imgs)
	if cap(rq.done) < n {
		rq.done = make(chan result, n)
	}
	rq.members = slices.Grow(rq.members[:0], n)[:n]
	for i := range rq.members {
		rq.members[i].rq, rq.members[i].i = rq, i
	}
	rq.resp.Verdicts = slices.Grow(rq.resp.Verdicts[:0], n)[:n]
	rq.client = client
	rq.deadline = time.Now().Add(timeout)
	if rq.timer == nil {
		rq.timer = time.NewTimer(timeout)
	} else {
		rq.timer.Reset(timeout)
	}
}

// disarm stops rq's deadline once its handler no longer waits on it.
func (rq *request) disarm() {
	if !rq.timer.Stop() {
		// The deadline fired as the last result arrived (or before a
		// shed). Under the pre-1.23 timer semantics go.mod selects, its
		// tick may still be on its way into the channel when Stop
		// returns, and the next request on this record would read it
		// as its own deadline; a non-blocking drain could miss it, so
		// the timer is dropped instead.
		rq.timer = nil
	}
}

// await hands rq's member results to use in member-index order, each
// once it and every earlier member's result have arrived, so flight
// entries, wide events and traces are filed in input order although
// micro-batches may finish out of order. It returns the member count
// once use has taken them all, or the index of the member it stopped
// at: the one use refused, or, with gone set, the first still waiting
// when the deadline passed or the client went away. A result arriving
// ahead of its turn waits in the record's early buffer.
func (rq *request) await(use func(result) bool) (next int, gone bool) {
	n := len(rq.members)
	early := false // whether early and arrived are readied for this request
	for next < n {
		var res result
		if early && rq.arrived[next] {
			res = rq.early[next]
		} else {
			select {
			case res = <-rq.done:
			case <-rq.timer.C:
				return next, true
			case <-rq.client.Done():
				return next, true
			}
			if res.i != next {
				if !early {
					rq.early = slices.Grow(rq.early[:0], n)[:n]
					rq.arrived = slices.Grow(rq.arrived[:0], n)[:n]
					clear(rq.arrived)
					early = true
				}
				rq.early[res.i], rq.arrived[res.i] = res, true
				continue
			}
		}
		if !use(res) {
			return next, false
		}
		next++
	}
	return n, false
}

// newRequestFree returns the free list of request records. dvserve
// sizes limit like the pixel list, Config.Workers × Config.MaxBatch;
// the list only ever holds as many records as were in flight at once.
// A record handed back keeps its storage but no image, client context,
// trace, result or answer of its last request.
func newRequestFree(limit int) *freelist.List[*request] {
	return &freelist.List[*request]{Max: limit, Reset: func(rq *request) {
		// To its capacity: a batch rejected part way through validation
		// leaves its accepted images past the length it hands back.
		clear(rq.imgs[:cap(rq.imgs)])
		rq.imgs, rq.explains = rq.imgs[:0], rq.explains[:0]
		for i := range rq.members {
			m := &rq.members[i]
			*m = pending{d: deepvalidation.Detail{PerLayer: m.d.PerLayer[:0]}}
		}
		clear(rq.early)
		clear(rq.resp.Verdicts)
		rq.client = nil
	}}
}

// takeRequest returns a record from f with no images: a held one if the
// list has any, otherwise a new one. Records reach the list only
// through release, so a held record's done channel is empty and its
// timer stopped, or nil.
func takeRequest(f *freelist.List[*request]) *request {
	rq, ok := f.Get()
	if !ok {
		rq = &request{}
	}
	return rq
}

// tryEnqueue admits rq's members all-or-nothing. The atomic depth
// counter is the real bound: it is incremented before the channel send
// and decremented at dequeue, so the channel (whose capacity equals
// QueueDepth) can never block an admitted sender, and admission beyond
// QueueDepth is refused here — the caller sheds with 429.
func (s *Server) tryEnqueue(rq *request) bool {
	n := int64(len(rq.members))
	if s.depth.Add(n) > int64(s.cfg.QueueDepth) {
		s.depth.Add(-n)
		return false
	}
	s.queueDepth.Set(float64(s.depth.Load()))
	for i := range rq.members {
		s.queue <- &rq.members[i]
	}
	return true
}

// dequeued accounts one request leaving the queue and stamps its
// dequeue time when traced.
func (s *Server) dequeued(p *pending) {
	s.queueDepth.Set(float64(s.depth.Add(-1)))
	s.pulls.Add(1)
	if p.tr != nil {
		p.tr.deq = time.Now()
	}
}

// batchBuf is one dispatch worker slot and its reusable batch storage:
// the batch, and the images, detail pointers and verdicts runBatch
// exchanges with the detector, each with room for MaxBatch members.
// The server's slots channel holds the free ones; the batcher takes
// one, fills it and hands it to a worker on work, and the worker
// returns it emptied, so forming and scoring a micro-batch grows no
// slice.
type batchBuf struct {
	batch    []*pending
	imgs     []deepvalidation.Image
	details  []*deepvalidation.Detail
	verdicts []deepvalidation.Verdict
}

func newSlots(workers, maxBatch int) chan *batchBuf {
	slots := make(chan *batchBuf, workers)
	for range workers {
		slots <- &batchBuf{
			batch:    make([]*pending, 0, maxBatch),
			imgs:     make([]deepvalidation.Image, 0, maxBatch),
			details:  make([]*deepvalidation.Detail, 0, maxBatch),
			verdicts: make([]deepvalidation.Verdict, 0, maxBatch),
		}
	}
	return slots
}

// reset empties b, dropping its references to requests and pixels so
// a parked slot keeps none of them alive.
func (b *batchBuf) reset() {
	clear(b.batch)
	clear(b.imgs)
	clear(b.details)
	b.batch, b.imgs, b.details, b.verdicts = b.batch[:0], b.imgs[:0], b.details[:0], b.verdicts[:0]
}

// runBatcher is the batching loop: pull the first waiting request, wait
// for a free worker, sweep whatever queued behind it into the batch and
// hand the batch to that worker. An idle server therefore scores a lone
// request at once, and a busy one batches everything that queued while
// its workers were busy. On stop it flushes whatever is still queued
// (the graceful-drain tail), closes work so the workers exit once they
// have scored every batch handed to them, and exits.
func (s *Server) runBatcher() {
	defer s.wg.Done()
	defer close(s.work)
	for {
		select {
		case <-s.stop:
			s.flush()
			return
		case first := <-s.queue:
			s.dispatch(s.claim(first))
		}
	}
}

// runWorker is one of the Config.Workers dispatch workers started by
// New: it scores each batch the batcher hands it and frees the batch's
// slot, emptied, until work is closed.
func (s *Server) runWorker() {
	defer s.wg.Done()
	for b := range s.work {
		s.runBatch(b)
		b.reset()
		s.slots <- b
	}
}

// claim takes a worker slot for the batch that starts with first, then
// sweeps its batch-mates from the queue into the slot's buffer. Waiting
// for the slot is the backpressure path: while every worker is busy the
// queue fills behind the blocked batcher and admission starts shedding.
func (s *Server) claim(first *pending) *batchBuf {
	s.dequeued(first)
	b := <-s.slots
	b.batch = append(b.batch, first)
	s.sweep(b)
	return b
}

// sweep non-blockingly tops the batch up from the queue.
func (s *Server) sweep(b *batchBuf) {
	for len(b.batch) < s.cfg.MaxBatch {
		select {
		case p := <-s.queue:
			s.dequeued(p)
			b.batch = append(b.batch, p)
		default:
			return
		}
	}
}

// dispatch hands the batch claim formed to the workers. work holds as
// many batches as there are slots, so the send never blocks.
func (s *Server) dispatch(b *batchBuf) {
	s.batchSize.Observe(float64(len(b.batch)))
	s.work <- b
}

// flush drains the queue after stop: every straggler still gets a
// verdict, batched as large as the leftover traffic allows.
func (s *Server) flush() {
	for {
		select {
		case p := <-s.queue:
			s.dispatch(s.claim(p))
		default:
			return
		}
	}
}

// runBatch scores one micro-batch. Members whose request expired (its
// deadline passed or its client went away) are skipped: their handlers
// have answered 504, or will. Verdicts are produced by
// Detector.CheckBatchDetailed, which is bit-identical to sequential
// Check calls; if the batch as a whole is rejected (e.g. an input
// geometry change racing a hot reload), members are re-scored singly
// so one poisoned request cannot fail its batch-mates.
//
// Per-layer detail is computed only when something will consume it —
// the flight recorder, the drift watch, an explain=1 request, or a
// traced request (which additionally gets stage timings). With all of
// those off, the path is exactly the pre-observability CheckBatch.
// Each member's detail lives in its request record, which the handler
// reads until it answers; the detector writes each row into the
// member's own PerLayer storage, and the flight recorder and the event
// ring copy it into storage their slots own, so no row is allocated per
// image.
func (s *Server) runBatch(b *batchBuf) {
	now := time.Now()
	live := b.batch[:0]
	for _, p := range b.batch {
		if p.rq.expired(now) {
			continue
		}
		live = append(live, p)
		b.imgs = append(b.imgs, p.rq.imgs[p.i])
	}
	if len(live) == 0 {
		return
	}
	drift := s.drift.Load()
	needDetail := s.plane.Recent != nil || drift != nil
	for _, p := range live {
		if p.rq.explains[p.i] || p.tr != nil {
			needDetail = true
			break
		}
	}
	if needDetail {
		for _, p := range live {
			p.d = deepvalidation.Detail{Timed: p.tr != nil, PerLayer: p.d.PerLayer[:0]}
			b.details = append(b.details, &p.d)
		}
	}
	det := s.handle.Get()
	now = time.Now()
	for _, p := range live {
		if p.tr != nil {
			p.tr.scoreStart = now
		}
	}
	// Chaos seam: an injected error skips the batch call and takes the
	// per-request fallback path.
	err := faultinject.Check(faultinject.PointServeBatch)
	if err == nil {
		b.verdicts, err = det.CheckBatchDetailed(b.verdicts, b.imgs, b.details)
	}
	end := time.Now()
	for _, p := range live {
		if p.tr != nil {
			p.tr.scoreEnd = end
		}
	}
	if err == nil {
		for i, p := range live {
			var d *deepvalidation.Detail
			if needDetail {
				d = &p.d
				s.observeDrift(drift, b.verdicts[i], d)
			}
			p.rq.done <- result{i: p.i, v: b.verdicts[i], d: d}
		}
		return
	}
	for _, p := range live {
		var d *deepvalidation.Detail
		if needDetail {
			d = &p.d
		}
		if p.tr != nil {
			p.tr.scoreStart = time.Now()
		}
		v, cerr := det.CheckDetailed(p.rq.imgs[p.i], d)
		if p.tr != nil {
			p.tr.scoreEnd = time.Now()
		}
		if cerr == nil && d != nil {
			s.observeDrift(drift, v, d)
		}
		p.rq.done <- result{i: p.i, v: v, err: cerr, d: d}
	}
}

// observeDrift feeds one verdict's per-layer discrepancies to the drift
// watch. Only accepted (Valid) verdicts enter the window: the fit-time
// reference is built from correctly classified training samples, so the
// comparable serve-time population is the traffic the detector accepts.
// Flagged corner cases score against the wrong-class SVM with huge d_i
// and would swamp the tail quantiles (sustained flagging is already
// watched by the alarm-rate stats); quarantined verdicts carry no
// distributional information at all.
func (s *Server) observeDrift(drift *trace.DriftWatch, v deepvalidation.Verdict, d *deepvalidation.Detail) {
	if drift == nil || !v.Valid {
		return
	}
	drift.Observe(d.PerLayer)
}
