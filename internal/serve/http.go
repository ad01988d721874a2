package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"deepvalidation"
	"deepvalidation/internal/obs"
	"deepvalidation/internal/telemetry"
	"deepvalidation/internal/trace"
)

// CheckRequest is the body of POST /v1/check: one image, flattened
// channel-major with pixel values in [0, 1]. Explain (equivalently the
// ?explain=1 query) asks for the per-layer discrepancy breakdown in the
// response.
type CheckRequest struct {
	Channels int       `json:"channels"`
	Height   int       `json:"height"`
	Width    int       `json:"width"`
	Pixels   []float64 `json:"pixels"`
	Explain  bool      `json:"explain,omitempty"`
}

// image converts the wire form to the public Image type.
func (r CheckRequest) image() deepvalidation.Image {
	return deepvalidation.Image{Channels: r.Channels, Height: r.Height, Width: r.Width, Pixels: r.Pixels}
}

// BatchRequest is the body of POST /v1/batch. Explain applies to every
// image; individual images can also set their own Explain flag.
type BatchRequest struct {
	Images  []CheckRequest `json:"images"`
	Explain bool           `json:"explain,omitempty"`
}

// VerdictResponse is the wire form of one verdict. Quarantined is
// omitted on the (overwhelmingly common) finite path, so healthy
// responses are byte-identical to the pre-quarantine wire format.
// PerLayer — present only when the request asked to explain — maps
// validated layer index to its discrepancy d_i; it is omitted for
// quarantined verdicts, whose d_i may be non-finite (unrepresentable in
// JSON).
type VerdictResponse struct {
	Label       int             `json:"label"`
	Confidence  float64         `json:"confidence"`
	Discrepancy float64         `json:"discrepancy"`
	Valid       bool            `json:"valid"`
	Quarantined bool            `json:"quarantined,omitempty"`
	PerLayer    map[int]float64 `json:"per_layer,omitempty"`
}

// BatchResponse answers POST /v1/batch with verdicts in input order.
type BatchResponse struct {
	Verdicts []VerdictResponse `json:"verdicts"`
}

// ReloadResponse answers POST /v1/reload.
type ReloadResponse struct {
	Reloaded bool    `json:"reloaded"`
	Epsilon  float64 `json:"epsilon"`
}

func verdictResponse(v deepvalidation.Verdict) VerdictResponse {
	return VerdictResponse{Label: v.Label, Confidence: v.Confidence, Discrepancy: v.Discrepancy, Valid: v.Valid, Quarantined: v.Quarantined}
}

// batchImages validates every member image of a decoded batch request,
// appending them to imgs and each one's effective Explain flag (its
// own, or the batch-level one) to explains. Callers pass both empty, in
// the request record's storage; on error both come back empty.
func batchImages(req BatchRequest, imgs []deepvalidation.Image, explains []bool) ([]deepvalidation.Image, []bool, error) {
	if len(req.Images) == 0 {
		return imgs, explains, errors.New("batch request carries no images")
	}
	for i, r := range req.Images {
		img := r.image()
		if err := img.Validate(); err != nil {
			return imgs[:0], explains[:0], fmt.Errorf("image %d: %w", i, err)
		}
		imgs = append(imgs, img)
		explains = append(explains, req.Explain || r.Explain)
	}
	return imgs, explains, nil
}

// queryExplain reports whether the request's query string asks for the
// per-layer breakdown (?explain=1 or ?explain=true). A request without
// a query string, the common case, parses nothing.
func queryExplain(r *http.Request) bool {
	if r.URL.RawQuery == "" {
		return false
	}
	v := r.URL.Query().Get("explain")
	if v == "" {
		return false
	}
	b, err := strconv.ParseBool(v)
	return err == nil && b
}

// Handler returns the server's routing table:
//
//	POST /v1/check            — validate one image
//	POST /v1/batch            — validate many images, verdicts in input order
//	POST /v1/reload           — hot-swap the detector via Config.Loader
//	POST /admin/drain         — reversible admission drain (?enable=true|false)
//	GET  /healthz             — process liveness
//	GET  /readyz              — detector loaded, warmed, and not draining
//	GET  /debug/dv/trace/{id} — one sampled verdict trace's span tree
//	GET  /debug/dv/flight     — recent verdicts (?valid=, ?class=, ?outcome=, ?limit=)
//	GET  /debug/dv/drift      — drift-watch status vs the fit-time reference
//	GET  /debug/dv/events     — recent wide events (?type=, ?level=, ?valid=, ?class=, ?outcome=, ?limit=)
//	GET  /debug/dv/slo        — SLO burn-rate engine status per objective and window
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/check", s.handleCheck)
	mux.HandleFunc("/v1/batch", s.handleBatch)
	mux.HandleFunc("/v1/reload", s.handleReload)
	mux.HandleFunc("/admin/drain", s.handleAdminDrain)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/debug/dv/trace/", s.handleTrace)
	mux.HandleFunc("/debug/dv/flight", s.handleFlight)
	mux.HandleFunc("/debug/dv/drift", s.handleDrift)
	mux.HandleFunc("/debug/dv/events", func(w http.ResponseWriter, r *http.Request) {
		obs.HandleEvents(s.events, w, r)
	})
	mux.HandleFunc("/debug/dv/slo", func(w http.ResponseWriter, r *http.Request) {
		obs.HandleSLO(s.slo, w, r)
	})
	return mux
}

// RetryAfterHeader renders a backoff hint as the Retry-After header
// value: integral seconds, rounded up, never below 1. It is the single
// source of the header format — dvserve's shed path and the gateway's
// shed/passthrough paths all emit exactly this, so clients see one
// consistent contract no matter which layer asked them to back off.
func RetryAfterHeader(d time.Duration) string {
	secs := int64(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// admissible answers method/drain preconditions shared by the check
// and batch handlers.
func (s *Server) admissible(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		obs.WriteError(w, http.StatusMethodNotAllowed, "use POST")
		return false
	}
	if s.draining.Load() {
		obs.WriteError(w, http.StatusServiceUnavailable, "server is draining")
		return false
	}
	return true
}

// releasePixels returns rq's images' pixel slices to the free list.
// Call it only once no batch worker can read them again: after the
// handler has received the result of every member, or when rq was
// never enqueued.
func (s *Server) releasePixels(rq *request) {
	c, h, w := s.handle.Get().InputShape()
	for _, img := range rq.imgs {
		s.pixels.put(img.Pixels, c*h*w)
	}
}

// release hands a request that was never enqueued back for reuse, with
// its images' pixels.
func (s *Server) release(rq *request) {
	s.releasePixels(rq)
	s.requests.Put(rq)
}

// expire answers a request whose deadline passed or whose client went
// away before every verdict arrived: 504, counted as a deadline. Its
// record is left to the GC, since a batch worker may still score its
// members; the timer is stopped so the runtime does not hold the
// record until it fires.
func (s *Server) expire(w http.ResponseWriter, rq *request, endpoint, id string, traced bool, t0 time.Time, msg string) {
	rq.timer.Stop()
	s.deadlines.Inc()
	lat := time.Since(t0)
	s.recordDropFlight(endpoint, id, trace.OutcomeDeadline, lat)
	s.storeDropTrace(endpoint, id, traced, t0, trace.OutcomeDeadline)
	s.emitRequest(endpoint, id, trace.OutcomeDeadline, nil, lat)
	obs.WriteError(w, http.StatusGatewayTimeout, msg)
}

// shedRequest answers a request the queue refused: 429 with the
// configured Retry-After hint. It was never enqueued, so its record
// goes back at once.
func (s *Server) shedRequest(w http.ResponseWriter, rq *request, endpoint, id string, traced bool, t0 time.Time) {
	rq.disarm()
	s.release(rq)
	lat := time.Since(t0)
	s.recordDropFlight(endpoint, id, trace.OutcomeShed, lat)
	s.storeDropTrace(endpoint, id, traced, t0, trace.OutcomeShed)
	s.emitRequest(endpoint, id, trace.OutcomeShed, nil, lat)
	s.shed.Inc()
	w.Header().Set("Retry-After", RetryAfterHeader(s.cfg.RetryAfter))
	obs.WriteError(w, http.StatusTooManyRequests, "admission queue full; retry later")
}

// checkShape rejects images whose geometry the current detector cannot
// consume, before they occupy queue slots.
func (s *Server) checkShape(img deepvalidation.Image) error {
	c, h, w := s.handle.Get().InputShape()
	if img.Channels != c || img.Height != h || img.Width != w {
		return fmt.Errorf("model expects a %dx%dx%d image, got %dx%dx%d",
			c, h, w, img.Channels, img.Height, img.Width)
	}
	return nil
}

// finiteSlice reports whether every value is representable in JSON.
func finiteSlice(xs []float64) bool {
	for _, v := range xs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// jsonSafe returns v as-is when finite, or its string form ("NaN",
// "+Inf") otherwise, so span attributes always survive json.Marshal.
func jsonSafe(v float64) any {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Sprintf("%g", v)
	}
	return v
}

// perLayerMap builds the explain payload: validated layer index → d_i.
// Nil when detail is absent or any d_i is non-finite (quarantined
// verdicts; JSON cannot carry NaN).
func perLayerMap(d *deepvalidation.Detail) map[int]float64 {
	if d == nil || len(d.PerLayer) != len(d.Layers) || !finiteSlice(d.PerLayer) {
		return nil
	}
	m := make(map[int]float64, len(d.PerLayer))
	for i, v := range d.PerLayer {
		m[d.Layers[i]] = v
	}
	return m
}

// recordVerdictFlight files one scored verdict with the flight
// recorder. Per-layer discrepancies ride along when finite.
func (s *Server) recordVerdictFlight(endpoint, id string, res result, end time.Time, lat time.Duration) {
	if s.flight == nil {
		return
	}
	e := trace.Entry{
		TimeNs:     end.UnixNano(),
		TraceID:    id,
		Endpoint:   endpoint,
		Outcome:    trace.OutcomeOK,
		Label:      res.v.Label,
		Confidence: res.v.Confidence,
		Joint:      res.v.Discrepancy,
		Valid:      res.v.Valid,
		LatencySec: lat.Seconds(),
	}
	if res.v.Quarantined {
		e.Outcome = trace.OutcomeQuarantined
	}
	if res.d != nil && len(res.d.PerLayer) == len(res.d.Layers) && finiteSlice(res.d.PerLayer) {
		e.Layers = res.d.Layers
		e.PerLayer = res.d.PerLayer
	}
	s.flight.Record(e)
}

// recordDropFlight files a request that never produced a verdict
// (shed, deadline, scoring error).
func (s *Server) recordDropFlight(endpoint, id, outcome string, lat time.Duration) {
	if s.flight == nil {
		return
	}
	s.flight.Record(trace.Entry{
		TimeNs:     time.Now().UnixNano(),
		TraceID:    id,
		Endpoint:   endpoint,
		Outcome:    outcome,
		LatencySec: lat.Seconds(),
	})
}

// emitRequest files one request outcome as a wide event: trace
// identity, outcome, verdict (for scored requests), the queue depth at
// emission, and the end-to-end latency. Guarded here so the disabled
// path builds nothing.
func (s *Server) emitRequest(endpoint, id, outcome string, res *result, lat time.Duration) {
	if s.events == nil {
		return
	}
	e := obs.Event{
		Type:       obs.TypeRequest,
		Level:      obs.LevelInfo,
		Endpoint:   endpoint,
		TraceID:    id,
		Outcome:    outcome,
		QueueDepth: int(s.depth.Load()),
		LatencySec: lat.Seconds(),
	}
	switch outcome {
	case trace.OutcomeShed, trace.OutcomeDeadline:
		e.Level = obs.LevelWarn
	case trace.OutcomeError:
		e.Level = obs.LevelError
		if res != nil && res.err != nil {
			e.Err = res.err.Error()
		}
	default: // scored: ok or quarantined
		if res != nil {
			e.Class = res.v.Label
			e.Valid = res.v.Valid
			e.Joint = res.v.Discrepancy
			if res.v.Quarantined {
				e.Level = obs.LevelWarn
			}
			if d := res.d; d != nil && len(d.PerLayer) == len(d.Layers) && finiteSlice(d.PerLayer) {
				e.Layers = d.Layers
				e.PerLayer = d.PerLayer
			}
		}
	}
	s.events.Emit(e)
}

// storeDropTrace stores a minimal span tree for a traced request that
// never produced a verdict (shed or deadline), so trace IDs
// cross-linked from SLO breach events stay resolvable on
// /debug/dv/trace/{id} even when the request died at admission.
func (s *Server) storeDropTrace(endpoint, id string, traced bool, t0 time.Time, outcome string) {
	if !traced || s.traces == nil || id == "" {
		return
	}
	root := trace.NewSpan("verdict", t0, time.Now())
	root.SetAttr("endpoint", endpoint)
	root.SetAttr("outcome", outcome)
	s.traces.Add(&trace.Trace{ID: id, Endpoint: endpoint, Root: root})
}

// storeTrace assembles and stores one traced request's span tree:
//
//	verdict
//	├── admission   (handler: read, decode, shape check, enqueue)
//	├── batch_wait  (queued, waiting for the micro-batcher)
//	├── dispatch    (pulled, waiting for a batch worker)
//	└── score       (forward pass + per-layer SVM scoring)
//	    ├── forward
//	    └── svm_layer_{i} — with attribute d = d_i
//
// Must only be called after receiving p's result: the batcher goroutine
// writes the deq/score timestamps, and the channel receive is the
// happens-before edge making them safe to read.
func (s *Server) storeTrace(endpoint string, p *pending, res result, end time.Time) {
	if p.tr == nil || s.traces == nil {
		return
	}
	tr := p.tr
	root := trace.NewSpan("verdict", tr.t0, end)
	root.SetAttr("endpoint", endpoint)
	if res.err != nil {
		root.SetAttr("error", res.err.Error())
	} else {
		root.SetAttr("label", res.v.Label)
		root.SetAttr("confidence", jsonSafe(res.v.Confidence))
		root.SetAttr("joint_d", jsonSafe(res.v.Discrepancy))
		root.SetAttr("valid", res.v.Valid)
		if res.v.Quarantined {
			root.SetAttr("quarantined", true)
		}
	}
	root.AddChild(trace.NewSpan("admission", tr.t0, tr.enq))
	root.AddChild(trace.NewSpan("batch_wait", tr.enq, tr.deq))
	root.AddChild(trace.NewSpan("dispatch", tr.deq, tr.scoreStart))
	score := root.AddChild(trace.NewSpan("score", tr.scoreStart, tr.scoreEnd))
	if d := res.d; d != nil && d.Timed && len(d.LayerTimes) == len(d.Layers) {
		// The batch scores as one unit, so per-item stage spans are
		// synthesized from the measured stage durations, laid end to end
		// from the batch's score start.
		cur := tr.scoreStart
		fwd := cur.Add(d.Forward)
		score.AddChild(trace.NewSpan("forward", cur, fwd))
		cur = fwd
		for i, lt := range d.LayerTimes {
			nxt := cur.Add(lt)
			sp := score.AddChild(trace.NewSpan("svm_layer_"+strconv.Itoa(d.Layers[i]), cur, nxt))
			if i < len(d.PerLayer) {
				sp.SetAttr("d", jsonSafe(d.PerLayer[i]))
			}
			cur = nxt
		}
	}
	s.traces.Add(&trace.Trace{ID: tr.id, Endpoint: endpoint, Root: root})
}

func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	sp := telemetry.StartSpan(s.latCheck)
	defer sp.End()
	s.reqCheck.Inc()
	if !s.admissible(w, r) {
		return
	}
	t0 := time.Now()
	id, traced := s.sampler.Decide(r.Header.Get(trace.HeaderTraceID))
	if id != "" {
		w.Header().Set(trace.HeaderTraceID, id)
	}
	limit := s.cfg.MaxBodyBytes
	img, explain, err := decodeCheckStream(s.streams, http.MaxBytesReader(w, r.Body, limit), limit, s.pixels)
	if err != nil {
		writeBodyError(w, err, limit)
		return
	}
	rq := takeRequest(s.requests)
	rq.imgs = append(rq.imgs, img)
	rq.explains = append(rq.explains, explain || queryExplain(r))
	if err := s.checkShape(img); err != nil {
		s.release(rq)
		obs.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.answer(w, r, rq, "check", id, traced, t0)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	sp := telemetry.StartSpan(s.latBatch)
	defer sp.End()
	s.reqBatch.Inc()
	if !s.admissible(w, r) {
		return
	}
	t0 := time.Now()
	base, traced := s.sampler.Decide(r.Header.Get(trace.HeaderTraceID))
	if base != "" {
		w.Header().Set(trace.HeaderTraceID, base)
	}
	limit := s.cfg.MaxBodyBytes
	rq := takeRequest(s.requests)
	var err error
	rq.imgs, rq.explains, err = decodeBatchStream(s.streams, http.MaxBytesReader(w, r.Body, limit), limit, s.pixels, rq.imgs, rq.explains)
	if err != nil {
		s.release(rq)
		writeBodyError(w, err, limit)
		return
	}
	if queryExplain(r) {
		for i := range rq.explains {
			rq.explains[i] = true
		}
	}
	if n := len(rq.imgs); n > s.cfg.QueueDepth {
		s.release(rq)
		obs.WriteError(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d exceeds the admission queue depth %d; split it", n, s.cfg.QueueDepth))
		return
	}
	for i, img := range rq.imgs {
		if err := s.checkShape(img); err != nil {
			s.release(rq)
			obs.WriteError(w, http.StatusBadRequest, fmt.Sprintf("image %d: %v", i, err))
			return
		}
	}
	s.answer(w, r, rq, "batch", base, traced, t0)
}

// answer serves a decoded request that passed its checks: it admits
// rq, waits for its verdicts and answers with them, a check's one
// verdict or a batch's in input order. id is the request's trace ID; a
// batch member i is traced and filed under {id}.{i}. The pixels go
// back as soon as the last verdict has arrived, before the answer is
// encoded, and the record once it is written. Only a request whose
// every member answered goes back to the free list: after a 400 or a
// 504 later members may still be queued or scoring.
func (s *Server) answer(w http.ResponseWriter, r *http.Request, rq *request, endpoint, id string, traced bool, t0 time.Time) {
	batch := endpoint == "batch"
	memberID := func(i int) string {
		if !batch || id == "" {
			return id
		}
		return trace.ItemID(id, i)
	}
	rq.admit(r.Context(), s.cfg.RequestTimeout)
	if traced {
		enq := time.Now()
		trs := make([]reqTrace, len(rq.members))
		for i := range trs {
			trs[i] = reqTrace{id: memberID(i), t0: t0, enq: enq}
			rq.members[i].tr = &trs[i]
		}
	}
	if !s.tryEnqueue(rq) {
		s.shedRequest(w, rq, endpoint, id, traced, t0)
		return
	}
	next, gone := rq.await(func(res result) bool {
		i, id := res.i, memberID(res.i)
		end := time.Now()
		s.storeTrace(endpoint, &rq.members[i], res, end)
		if res.err != nil {
			s.recordDropFlight(endpoint, id, trace.OutcomeError, end.Sub(t0))
			s.emitRequest(endpoint, id, trace.OutcomeError, &res, end.Sub(t0))
			msg := res.err.Error()
			if batch {
				msg = fmt.Sprintf("image %d: %s", i, msg)
			}
			obs.WriteError(w, http.StatusBadRequest, msg)
			return false
		}
		s.recordVerdictFlight(endpoint, id, res, end, end.Sub(t0))
		outcome := trace.OutcomeOK
		if res.v.Quarantined {
			outcome = trace.OutcomeQuarantined
		}
		s.emitRequest(endpoint, id, outcome, &res, end.Sub(t0))
		v := &rq.resp.Verdicts[i]
		*v = verdictResponse(res.v)
		if rq.explains[i] {
			v.PerLayer = perLayerMap(res.d)
		}
		return true
	})
	switch {
	case gone:
		msg := "deadline exceeded before a verdict was produced"
		if batch {
			msg = "deadline exceeded before all verdicts were produced"
		}
		s.expire(w, rq, endpoint, memberID(next), traced, t0, msg)
	case next == len(rq.members):
		rq.disarm()
		s.releasePixels(rq)
		if batch {
			obs.WriteJSON(w, http.StatusOK, &rq.resp)
		} else {
			obs.WriteJSON(w, http.StatusOK, &rq.resp.Verdicts[0])
		}
		s.requests.Put(rq)
	}
}

// handleTrace serves one sampled trace's span tree as JSON.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		obs.WriteError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	if s.traces == nil {
		obs.WriteError(w, http.StatusNotFound, "tracing disabled (serve with TraceSample > 0)")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/debug/dv/trace/")
	if id == "" {
		obs.WriteError(w, http.StatusBadRequest, "missing trace id: GET /debug/dv/trace/{id}")
		return
	}
	tr := s.traces.Get(id)
	if tr == nil {
		obs.WriteError(w, http.StatusNotFound, "no trace "+id+" (evicted, unsampled, or never seen)")
		return
	}
	obs.WriteJSON(w, http.StatusOK, tr)
}

// FlightResponse is the body of GET /debug/dv/flight. It is exported
// as a wire contract: the gateway's fleet-wide flight aggregation
// unmarshals exactly this struct from each replica before merging.
type FlightResponse struct {
	Count   int           `json:"count"`
	Entries []trace.Entry `json:"entries"`
}

// handleFlight serves the flight recorder, newest first. Filters:
// ?valid=false (verdicts by validity), ?class=3 (by predicted label),
// ?outcome=shed, ?limit=20 — parsed by trace.ParseFilter, the grammar
// shared with the gateway's fleet aggregation.
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		obs.WriteError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	if s.flight == nil {
		obs.WriteError(w, http.StatusNotFound, "flight recorder disabled (serve with FlightSize >= 0)")
		return
	}
	f, err := trace.ParseFilter(r.URL.Query())
	if err != nil {
		obs.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	entries := s.flight.Snapshot(f)
	if entries == nil {
		entries = []trace.Entry{}
	}
	obs.WriteJSON(w, http.StatusOK, FlightResponse{Count: len(entries), Entries: entries})
}

// handleDrift serves the drift-watch status (Enabled false when the
// watch is off or the loaded artifact carries no fit-time reference).
func (s *Server) handleDrift(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		obs.WriteError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	obs.WriteJSON(w, http.StatusOK, s.DriftStatus())
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		obs.WriteError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if s.cfg.Loader == nil {
		obs.WriteError(w, http.StatusNotImplemented, "reload not configured (no loader)")
		return
	}
	eps, err := s.Reload()
	if err != nil {
		obs.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	obs.WriteJSON(w, http.StatusOK, ReloadResponse{Reloaded: true, Epsilon: eps})
}

// drainResponse answers POST /admin/drain.
type drainResponse struct {
	Draining bool `json:"draining"`
}

// handleAdminDrain is the operator drain hook: ?enable=true takes the
// replica out of admission (checks answer 503, /readyz flips to
// draining so a fronting gateway stops routing here) without touching
// the process; ?enable=false reinstates it. Unlike Drain/Close this is
// reversible — it is how a replica is parked for maintenance and
// brought back.
func (s *Server) handleAdminDrain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		obs.WriteError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	enable := true
	if v := r.URL.Query().Get("enable"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			obs.WriteError(w, http.StatusBadRequest, "bad enable value: "+err.Error())
			return
		}
		enable = b
	}
	if err := s.SetDrain(enable); err != nil {
		obs.WriteError(w, http.StatusConflict, err.Error())
		return
	}
	obs.WriteJSON(w, http.StatusOK, drainResponse{Draining: s.draining.Load()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// ReadyzBody is the machine-parseable readiness summary appended to
// /readyz as a single JSON line, after the plain-text lines probes and
// smoke scripts grep. It is exported because it is a wire contract:
// the gateway's health prober unmarshals exactly this struct from the
// tail of each replica's /readyz, and its ValidatorSHA256 field is how
// staged rollouts verify that a reload actually converged on the
// pushed artifact without needing a second endpoint.
type ReadyzBody struct {
	Status           string `json:"status"`
	ReloadFailStreak int    `json:"reload_fail_streak"`
	// ModelSHA256 and ValidatorSHA256 are the payload checksums the
	// currently serving detector's Load verified (empty for a detector
	// from Build, or legacy bare gobs with no container header). They
	// change with every successful reload, and only then.
	ModelSHA256     string            `json:"model_sha256,omitempty"`
	ValidatorSHA256 string            `json:"validator_sha256,omitempty"`
	Drift           trace.DriftStatus `json:"drift"`
	SLO             obs.Status        `json:"slo"`
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	// The body layout is a compatibility contract: line 1 is the bare
	// status word probes match, line 2 the drift summary, line 3 the SLO
	// summary, line 4 the full JSON readiness document.
	status := "ready"
	code := http.StatusOK
	switch {
	case s.draining.Load():
		status, code = "draining", http.StatusServiceUnavailable
	case !s.Ready():
		status, code = "loading", http.StatusServiceUnavailable
	case s.Degraded():
		// Still answering checks on the last good detector, but the
		// artifact pipeline is broken: stop routing fresh traffic here.
		status = fmt.Sprintf("degraded: %d consecutive reload failures; serving the last good detector", s.FailStreak())
		code = http.StatusServiceUnavailable
	}
	drift := s.DriftStatus()
	slo := s.SLOStatus()
	modelSHA, valSHA := s.ArtifactSHAs()
	w.WriteHeader(code)
	fmt.Fprintln(w, status)
	fmt.Fprintln(w, s.driftLine())
	fmt.Fprintln(w, slo.Line())
	body, err := json.Marshal(ReadyzBody{
		Status:           status,
		ReloadFailStreak: s.FailStreak(),
		ModelSHA256:      modelSHA,
		ValidatorSHA256:  valSHA,
		Drift:            drift,
		SLO:              slo,
	})
	if err == nil {
		w.Write(body)
		fmt.Fprintln(w)
	}
}

// driftLine is the human-readable drift detail appended to /readyz
// (always after the readiness verdict line, so line-1 parsers keep
// working).
func (s *Server) driftLine() string {
	st := s.DriftStatus()
	switch {
	case !st.Enabled:
		return "drift: disabled"
	case st.Alarm:
		return fmt.Sprintf("drift: ALARM (max score %.4f >= threshold %.4f)", st.MaxScore, st.Threshold)
	case st.Warming:
		return fmt.Sprintf("drift: warming (%d/%d observations)", st.Fill, st.MinFill)
	default:
		return fmt.Sprintf("drift: ok (max score %.4f, threshold %.4f)", st.MaxScore, st.Threshold)
	}
}

// Drain is the SIGTERM path: stop admitting (readyz flips to 503 and
// new checks get 503), let hs.Shutdown wait for in-flight handlers —
// whose verdicts the still-running batcher keeps producing — then stop
// the batcher and wait for its workers. Returns hs.Shutdown's error
// (context expiry if in-flight work outlived ctx).
func (s *Server) Drain(ctx context.Context, hs *http.Server) error {
	s.draining.Store(true)
	err := hs.Shutdown(ctx)
	s.Close()
	return err
}
