package gateway

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	neturl "net/url"
	"time"

	"deepvalidation/internal/faultinject"
	"deepvalidation/internal/obs"
	"deepvalidation/internal/serve"
	"deepvalidation/internal/trace"
)

// Gateway route outcomes: how one proxied request left the gateway.
// They label the dv_gw_route_latency_seconds histograms, the gateway's
// hop-span trees, and the SLO cross-link ring.
const (
	outcomeOK          = "ok"          // routed, replica answered, no retry needed
	outcomeRetry       = "retry"       // routed successfully after >= 1 retry hop
	outcomeShed        = "shed"        // gateway-origin 429/503 (saturated or unroutable)
	outcomePassthrough = "passthrough" // replica 429/503 backpressure relayed
	outcomeBadGateway  = "bad_gateway" // 502 or a relayed replica 500/502
)

// Route-decision reasons recorded on the route span of each hop.
const (
	reasonRendezvous  = "rendezvous"   // the highest-random-weight winner took it
	reasonLeastLoaded = "least_loaded" // winner at capacity; least-loaded fallback
)

// recentOutcomes bounds the ring of route outcomes kept for SLO breach
// cross-linking.
const recentOutcomes = 256

// routeKey derives the placement key for one request: the client's
// X-DV-Trace-Id when present (so a traced request is replayable against
// the same replica), otherwise the FNV-1a hash of the body — identical
// payloads land on the same replica, which keeps any replica-local
// caching and flight-recorder context coherent. A gateway-minted trace
// ID deliberately does not participate: it is random, and routing by it
// would scatter identical payloads.
func routeKey(r *http.Request, body []byte) uint64 {
	if id := r.Header.Get(trace.HeaderTraceID); id != "" {
		return fnv1a(fnvOffset, id)
	}
	return fnv1a(fnvOffset, body)
}

// rendezvousScore is the highest-random-weight score of (key, replica):
// each replica hashes the key with its own name salted in, and the
// highest score wins. Adding or removing a replica only remaps the keys
// whose winner changed — no ring maintenance, no global reshuffle.
func rendezvousScore(key uint64, name string) uint64 {
	h := uint64(fnvOffset)
	for i := range 8 {
		h = (h ^ (key >> (8 * i) & 0xff)) * fnvPrime
	}
	return fnv1a(h, name)
}

// 64-bit FNV-1a, as hash/fnv's New64a computes it.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnv1a folds b into the FNV-1a state h.
func fnv1a[T string | []byte](h uint64, b T) uint64 {
	for i := 0; i < len(b); i++ {
		h = (h ^ uint64(b[i])) * fnvPrime
	}
	return h
}

// Routing failure modes pick distinguishes for the shed paths.
var (
	errNoReplicas   = errors.New("gateway: no replicas in rotation")
	errAllSaturated = errors.New("gateway: every in-rotation replica is at its in-flight cap")
)

// pick places a key: the rendezvous winner among in-rotation replicas
// not in exclude, falling back to the least-loaded eligible replica
// when the winner is at its in-flight cap. The reason string says which
// of the two happened — it is recorded on the hop's route span.
// Deterministic given the same rotation set and loads — the race-mode
// equivalence tests rely on it.
func (g *Gateway) pick(key uint64, exclude *replica) (*replica, string, error) {
	var winner *replica
	var winScore uint64
	var fallback *replica
	var fallbackLoad int64
	inRotation := 0
	for _, r := range g.replicas {
		if r == exclude || !r.state().InRotation() {
			continue
		}
		inRotation++
		load := r.inflight.Load()
		if load < int64(g.cfg.MaxInflight) && (fallback == nil || load < fallbackLoad) {
			fallback, fallbackLoad = r, load
		}
		score := rendezvousScore(key, r.name)
		if winner == nil || score > winScore || (score == winScore && r.name < winner.name) {
			winner, winScore = r, score
		}
	}
	if inRotation == 0 {
		return nil, "", errNoReplicas
	}
	if winner.inflight.Load() < int64(g.cfg.MaxInflight) {
		return winner, reasonRendezvous, nil
	}
	if fallback == nil {
		return nil, "", errAllSaturated
	}
	return fallback, reasonLeastLoaded, nil
}

// forward sends the request body of x to a replica and reads the
// replica's response into x, accounting in-flight load for the
// duration. Buffering the response (rather than streaming it) is what
// makes the retry path safe: nothing has been written to the client
// before the gateway decides the response is final. The transport reads
// the request through its own reader of x, which holds a reference
// until the transport closes it, so a body it is still writing after
// RoundTrip returns is not recycled under it.
func (g *Gateway) forward(ctx context.Context, rep *replica, endpoint, query, contentType, traceID string, x *exchange) error {
	if err := faultinject.Check(faultinject.PointGatewayRoute); err != nil {
		return err
	}
	n := rep.inflight.Add(1)
	rep.inflightGauge.Set(float64(n))
	defer func() {
		rep.inflightGauge.Set(float64(rep.inflight.Add(-1)))
	}()
	url := rep.endpoint(endpoint)
	if query != "" {
		url += "?" + query
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, nil)
	if err != nil {
		return err
	}
	req.Header = forwardHeader(contentType, traceID)
	// An empty body stays nil: the transport takes a non-nil body with
	// ContentLength 0 for one of unknown length.
	if len(x.body) > 0 {
		if req.Body, err = x.getBody(); err != nil {
			return err
		}
		req.ContentLength = int64(len(x.body))
		req.GetBody = x.getBody
	}
	// The transport, not an http.Client: a replica redirect is relayed
	// rather than followed (dvserve sends none), and no per-request
	// header copier is built for redirects.
	resp, err := g.transport.RoundTrip(req)
	if err != nil {
		// Worded as http.Client words it, for 502 bodies, hop records
		// and events.
		return &neturl.Error{Op: "Post", URL: url, Err: err}
	}
	defer resp.Body.Close()
	// Capped like every other replica read: an oversized response is a
	// transport error, so it takes the 502/retry path.
	body, err := serve.ReadLimited(resp.Body, resp.ContentLength, g.cfg.MaxBodyBytes, x.resp)
	if err != nil {
		return fmt.Errorf("reading replica response: %w", err)
	}
	rep.routed.Inc()
	x.resp = body
	x.status = resp.StatusCode
	x.contentType = resp.Header.Get("Content-Type")
	x.retryAfter = resp.Header.Get("Retry-After")
	x.traceID = resp.Header.Get(trace.HeaderTraceID)
	return nil
}

// jsonForwardHeader is the header map of every untraced forward whose
// client sent Content-Type application/json, as the JSON API expects.
var jsonForwardHeader = http.Header{"Content-Type": {"application/json"}}

// forwardHeader returns the header map for one forward. No map it
// returns is ever written again: the transport may read a request's
// header from its read loop after the body is closed and the handler
// has returned. Untraced JSON forwards share jsonForwardHeader and
// allocate none; a traced forward, or one with another Content-Type,
// builds its own.
func forwardHeader(contentType, traceID string) http.Header {
	if traceID == "" && contentType == "application/json" {
		return jsonForwardHeader
	}
	h := make(http.Header, 2)
	if contentType != "" {
		h["Content-Type"] = []string{contentType}
	}
	if traceID != "" {
		h[trace.HeaderTraceID] = []string{traceID}
	}
	return h
}

// retryableStatus reports replica responses worth one attempt on a
// different replica: 500 and 502 mean this replica failed the request,
// while 429/503 are deliberate backpressure (relayed, never retried —
// hammering a second replica is how one overload becomes two) and 504
// means the work deadline already expired.
func retryableStatus(code int) bool {
	return code == http.StatusInternalServerError || code == http.StatusBadGateway
}

// hopRecord is one routing attempt as seen by the hop-span tree: the
// route decision (or its failure) and the upstream round-trip.
type hopRecord struct {
	replica   string // empty when the pick itself failed
	reason    string
	pickStart time.Time
	pickEnd   time.Time
	fwdEnd    time.Time
	status    int // replica's HTTP status; 0 when transport failed
	err       string
	retry     bool
}

// routeResult is the terminal state of one routed request: either a
// final upstream response or a gateway-origin error, plus the hop
// history and the outcome classification.
type routeResult struct {
	up      *exchange // holds the final replica response; nil on a gateway-origin error
	status  int       // gateway-origin status when up == nil
	msg     string    // gateway-origin error body when up == nil
	outcome string
	hops    []hopRecord
}

// clientStatus is the HTTP status the client will see.
func (rr *routeResult) clientStatus() int {
	if rr.up != nil {
		return rr.up.status
	}
	return rr.status
}

// route runs the placement/retry loop for one request and classifies
// the terminal outcome. Hop records are collected only when keepHops —
// the untraced path allocates nothing for them.
func (g *Gateway) route(ctx context.Context, key uint64, endpoint, query, contentType, fwdID string, x *exchange, keepHops bool) routeResult {
	var res routeResult
	var exclude *replica // the replica a retry must avoid
	var lastErr error
	record := func(h hopRecord) {
		if keepHops {
			res.hops = append(res.hops, h)
		}
	}
	for attempt := 0; ; attempt++ {
		pickStart := time.Now()
		rep, reason, pickErr := g.pick(key, exclude)
		pickEnd := time.Now()
		if rep == nil {
			record(hopRecord{pickStart: pickStart, pickEnd: pickEnd, err: pickErr.Error(), retry: attempt > 0})
			if errors.Is(pickErr, errNoReplicas) {
				// A first-attempt routing failure means the fleet is gone
				// (503, try later); mid-retry it means the one replica that
				// could have rescued the request was just excluded — answer
				// like a transport failure.
				if attempt == 0 {
					g.unroutable.Inc()
					res.status, res.msg = http.StatusServiceUnavailable, "no replicas in rotation; retry later"
					res.outcome = outcomeShed
					return res
				}
				g.badGateway.Inc()
				res.status, res.msg = http.StatusBadGateway, "replica failed and no other replica is in rotation: "+lastErr.Error()
				res.outcome = outcomeBadGateway
				return res
			}
			g.shed.Inc()
			res.status, res.msg = http.StatusTooManyRequests, "all replicas at capacity; retry later"
			res.outcome = outcomeShed
			return res
		}
		hop := hopRecord{replica: rep.name, reason: reason, pickStart: pickStart, pickEnd: pickEnd, retry: attempt > 0}
		err := g.forward(ctx, rep, endpoint, query, contentType, fwdID, x)
		hop.fwdEnd = time.Now()
		if err != nil {
			// Transport failure: the replica never answered. Feed the
			// health machine so a dead replica drains fast, then retry on
			// a different replica if the budget allows.
			hop.err = err.Error()
			record(hop)
			lastErr = err
			g.observe(rep, false, nil, err.Error())
			if attempt < g.cfg.MaxRetries {
				if g.budget.spend() {
					g.retries.Inc()
					exclude = rep
					continue
				}
				g.budgetExhausted.Inc()
			}
			g.badGateway.Inc()
			res.status, res.msg = http.StatusBadGateway, "replica unreachable: "+err.Error()
			res.outcome = outcomeBadGateway
			return res
		}
		hop.status = x.status
		record(hop)
		g.observe(rep, true, nil, "")
		if retryableStatus(x.status) && attempt < g.cfg.MaxRetries {
			if g.budget.spend() {
				g.retries.Inc()
				exclude = rep
				lastErr = fmt.Errorf("replica %s answered %d", rep.name, x.status)
				continue // the next hop's response replaces this one in x
			}
			g.budgetExhausted.Inc()
		}
		g.budget.earn()
		res.up = x
		switch {
		case x.status == http.StatusTooManyRequests || x.status == http.StatusServiceUnavailable:
			res.outcome = outcomePassthrough
		case retryableStatus(x.status):
			// A relayed replica 500/502 after the retry allowance — the
			// gateway failed to shield the client from a replica failure.
			res.outcome = outcomeBadGateway
		case attempt > 0:
			res.outcome = outcomeRetry
		default:
			res.outcome = outcomeOK
		}
		return res
	}
}

// proxy routes one request: read + cap the body, resolve its trace
// identity, place it by rendezvous hash, forward, and retry at most
// MaxRetries times on a different replica when transport fails or the
// replica answers 500/502 — each retry spending a budget token.
// Transport outcomes feed the health machine, so a dead replica drains
// from the route path alone. Every terminal outcome is observed into
// the per-outcome latency histograms, the SLO cross-link ring, and —
// when the request is traced — the gateway's hop-span store.
func (g *Gateway) proxy(endpoint string, w http.ResponseWriter, r *http.Request) {
	if !obs.AllowMethod(w, r, http.MethodPost) {
		return
	}
	t0 := time.Now()
	id, traced := g.plane.Sampler.Decide(r.Header.Get(trace.HeaderTraceID))
	if id != "" {
		// Echo the gateway's trace identity on every response — success
		// or error — so any request seen while tracing is on can be
		// looked up afterwards, even if it never reached a replica.
		w.Header().Set(trace.HeaderTraceID, id)
	}
	// The handler's reference keeps the record for every hop and retry;
	// each transport reader holds its own (see exchange).
	x := g.takeExchange()
	defer x.release()
	buf, ok := serve.ReadBody(w, r, g.cfg.MaxBodyBytes, x.body)
	if !ok {
		return
	}
	x.body = buf
	key := routeKey(r, buf)
	admissionEnd := time.Now()
	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.ProxyTimeout)
	defer cancel()
	// Forward the request's trace identity on every hop: the resolved
	// gateway ID when tracing is on (minted or client-supplied), else
	// whatever the client sent, verbatim — tracing off must not change
	// the wire behavior.
	fwdID := id
	if fwdID == "" {
		fwdID = r.Header.Get(trace.HeaderTraceID)
	}
	res := g.route(ctx, key, endpoint, r.URL.RawQuery, r.Header.Get("Content-Type"), fwdID, x, traced)
	g.finishProxy(endpoint, id, traced, t0, admissionEnd, &res)
	if res.up == nil {
		if res.status == http.StatusServiceUnavailable || res.status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", serve.RetryAfterHeader(g.cfg.RetryAfter))
		}
		obs.WriteError(w, res.status, res.msg)
		return
	}
	g.writeUpstream(w, res.up, id)
}

// writeUpstream relays a buffered replica response. The trace header
// prefers the gateway's own ID (already set by proxy) over the
// replica's echo — they are the same value on the stitched path, but a
// replica must not be able to overwrite the identity the gateway
// advertised. Replica backpressure (429/503) carries a unified
// Retry-After: the replica's own header when present — dvserve renders
// it with serve.RetryAfterHeader, the same function the gateway uses —
// or the gateway default otherwise, so clients always get the one
// format.
func (g *Gateway) writeUpstream(w http.ResponseWriter, up *exchange, gatewayID string) {
	if up.contentType != "" {
		obs.SetContentType(w.Header(), up.contentType)
	}
	if gatewayID == "" && up.traceID != "" {
		w.Header().Set(trace.HeaderTraceID, up.traceID)
	}
	switch up.status {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		retryAfter := up.retryAfter
		if retryAfter == "" {
			retryAfter = serve.RetryAfterHeader(g.cfg.RetryAfter)
		}
		w.Header().Set("Retry-After", retryAfter)
		if up.status == http.StatusTooManyRequests {
			g.pass429.Inc()
		} else {
			g.pass503.Inc()
		}
	}
	w.WriteHeader(up.status)
	_, _ = w.Write(up.resp)
}
