package serve

import (
	"context"
	"time"

	"deepvalidation"
	"deepvalidation/internal/faultinject"
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

// pending is one member of an admitted request waiting for a verdict.
// A request's members live in one slab (newMembers) and share one done
// channel, buffered to the member count, so a batch worker never blocks
// delivering, even to a handler that already gave up (deadline expiry
// between scoring and delivery). Each result carries the member's
// index i, because members scored in different micro-batches may
// answer out of order.
//
// img's pixels belong to the handler, which recycles them once it has
// received the result of every member. runBatch therefore never reads
// p.img after sending p's result, in the batch path and in the
// per-request fallback alike; a handler that stops waiting (deadline)
// leaves them to the GC.
type pending struct {
	img     deepvalidation.Image
	ctx     context.Context
	done    chan<- result
	i       int
	explain bool      // caller asked for per-layer discrepancies
	tr      *reqTrace // non-nil when this request is traced
}

// newMembers makes the pending members of one request in one slab,
// answering on one result channel with room for every member.
func newMembers(ctx context.Context, imgs []deepvalidation.Image, explains []bool) ([]pending, <-chan result) {
	done := make(chan result, len(imgs))
	ps := make([]pending, len(imgs))
	for i, img := range imgs {
		ps[i] = pending{img: img, ctx: ctx, done: done, i: i, explain: explains[i]}
	}
	return ps, done
}

// tryEnqueue admits the requests all-or-nothing. The atomic depth
// counter is the real bound: it is incremented before the channel send
// and decremented at dequeue, so the channel (whose capacity equals
// QueueDepth) can never block an admitted sender, and admission beyond
// QueueDepth is refused here — the caller sheds with 429.
func (s *Server) tryEnqueue(ps []pending) bool {
	n := int64(len(ps))
	if s.depth.Add(n) > int64(s.cfg.QueueDepth) {
		s.depth.Add(-n)
		return false
	}
	s.queueDepth.Set(float64(s.depth.Load()))
	for i := range ps {
		s.queue <- &ps[i]
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
// the batch and the image slice runBatch hands the detector, each with
// room for MaxBatch members. The server's slots channel holds the free
// ones; a batch takes one and returns it emptied, so forming and
// scoring a micro-batch grows no slice.
type batchBuf struct {
	batch []*pending
	imgs  []deepvalidation.Image
}

func newSlots(workers, maxBatch int) chan *batchBuf {
	slots := make(chan *batchBuf, workers)
	for range workers {
		slots <- &batchBuf{
			batch: make([]*pending, 0, maxBatch),
			imgs:  make([]deepvalidation.Image, 0, maxBatch),
		}
	}
	return slots
}

// reset empties b, dropping its references to requests and pixels so
// a parked slot keeps none of them alive.
func (b *batchBuf) reset() {
	clear(b.batch)
	clear(b.imgs)
	b.batch, b.imgs = b.batch[:0], b.imgs[:0]
}

// runBatcher is the batching loop: pull the first waiting request, wait
// for a free worker, sweep whatever queued behind it into the batch and
// hand the batch to that worker. An idle server therefore scores a lone
// request at once, and a busy one batches everything that queued while
// its workers were busy. On stop it flushes whatever is still queued
// (the graceful-drain tail) and exits.
func (s *Server) runBatcher() {
	defer s.wg.Done()
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

// dispatch scores one batch on the worker slot claim took, and frees
// the slot, emptied, when the batch is done.
func (s *Server) dispatch(b *batchBuf) {
	s.batchSize.Observe(float64(len(b.batch)))
	s.wg.Add(1)
	go func() {
		defer func() {
			b.reset()
			s.slots <- b
			s.wg.Done()
		}()
		s.runBatch(b)
	}()
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

// runBatch scores one micro-batch. Requests whose context already
// expired are skipped (their handlers have answered 504). Verdicts are
// produced by Detector.CheckBatch, which is bit-identical to
// sequential Check calls; if the batch as a whole is rejected (e.g. an
// input geometry change racing a hot reload), members are re-scored
// singly so one poisoned request cannot fail its batch-mates.
//
// Per-layer detail is computed only when something will consume it —
// the flight recorder, the drift watch, an explain=1 request, or a
// traced request (which additionally gets stage timings). With all of
// those off, the path is exactly the pre-observability CheckBatch.
// The batch's details are one slab: handlers keep pointers into it
// until they answer, and recorders keep only the PerLayer slices the
// detector allocates per image.
func (s *Server) runBatch(b *batchBuf) {
	live := b.batch[:0]
	for _, p := range b.batch {
		if p.ctx.Err() != nil {
			continue
		}
		live = append(live, p)
		b.imgs = append(b.imgs, p.img)
	}
	if len(live) == 0 {
		return
	}
	drift := s.drift.Load()
	needDetail := s.flight != nil || drift != nil
	for _, p := range live {
		if p.explain || p.tr != nil {
			needDetail = true
			break
		}
	}
	var details []*deepvalidation.Detail
	if needDetail {
		slab := make([]deepvalidation.Detail, len(live))
		details = make([]*deepvalidation.Detail, len(live))
		for i, p := range live {
			slab[i].Timed = p.tr != nil
			details[i] = &slab[i]
		}
	}
	det := s.handle.Get()
	now := time.Now()
	for _, p := range live {
		if p.tr != nil {
			p.tr.scoreStart = now
		}
	}
	// Chaos seam: an injected error skips the batch call and takes the
	// per-request fallback path.
	var vs []deepvalidation.Verdict
	err := faultinject.Check(faultinject.PointServeBatch)
	if err == nil {
		vs, err = det.CheckBatchDetailed(b.imgs, details)
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
			if details != nil {
				d = details[i]
				s.observeDrift(drift, vs[i], d)
			}
			p.done <- result{i: p.i, v: vs[i], d: d}
		}
		return
	}
	for i, p := range live {
		var d *deepvalidation.Detail
		if details != nil {
			d = details[i]
		}
		if p.tr != nil {
			p.tr.scoreStart = time.Now()
		}
		v, cerr := det.CheckDetailed(p.img, d)
		if p.tr != nil {
			p.tr.scoreEnd = time.Now()
		}
		if cerr == nil && d != nil {
			s.observeDrift(drift, v, d)
		}
		p.done <- result{i: p.i, v: v, err: cerr, d: d}
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
