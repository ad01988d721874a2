package gateway

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"deepvalidation/internal/obs"
	"deepvalidation/internal/trace"
)

// The gateway's leg of cross-tier tracing. Each traced request gets a
// hop-span tree:
//
//	gateway — attrs endpoint, outcome, status
//	├── admission            (read + cap body, resolve trace identity)
//	├── route    {hop 0}     (pick decision: replica + reason, or error)
//	├── upstream {hop 0}     (round-trip to the chosen replica)
//	└── route/upstream {hop 1...}  — one pair per retry
//
// The same trace ID travels to the replica on every hop, so the
// replica's own verdict span tree shares the identity; GET
// /debug/dv/trace/{id} on the gateway stitches the two tiers into one
// merged tree, degrading to an explicitly-marked partial tree when the
// replica's tree cannot be fetched.

// stitchItemProbes bounds how many {id}.{i} batch-item traces the
// stitcher probes a replica for when the base ID itself has no replica
// trace (batch requests are traced per item on the replica).
const stitchItemProbes = 32

// observeRouteLatency files one terminal outcome's end-to-end latency
// into its per-outcome histogram.
func (g *Gateway) observeRouteLatency(outcome string, sec float64) {
	switch outcome {
	case outcomeOK:
		g.latOK.Observe(sec)
	case outcomeRetry:
		g.latRetry.Observe(sec)
	case outcomeShed:
		g.latShed.Observe(sec)
	case outcomePassthrough:
		g.latPassthrough.Observe(sec)
	case outcomeBadGateway:
		g.latBadGateway.Observe(sec)
	}
}

// finishProxy is the single accounting site for a routed request:
// latency histogram by outcome, the SLO cross-link ring, and — when
// traced — assembly and storage of the hop-span tree.
func (g *Gateway) finishProxy(endpoint, id string, traced bool, t0, admissionEnd time.Time, res *routeResult) {
	end := time.Now()
	lat := end.Sub(t0)
	g.observeRouteLatency(res.outcome, lat.Seconds())
	if g.recent != nil {
		g.recent.Record(trace.Entry{
			TimeNs:     end.UnixNano(),
			TraceID:    id,
			Endpoint:   endpoint,
			Outcome:    res.outcome,
			LatencySec: lat.Seconds(),
		})
	}
	if !traced || g.traces == nil || id == "" {
		return
	}
	root := trace.NewSpan("gateway", t0, end)
	root.SetAttr("endpoint", endpoint)
	root.SetAttr("outcome", res.outcome)
	root.SetAttr("status", res.clientStatus())
	root.AddChild(trace.NewSpan("admission", t0, admissionEnd))
	for i, h := range res.hops {
		rs := root.AddChild(trace.NewSpan("route", h.pickStart, h.pickEnd))
		rs.SetAttr("hop", i)
		if h.retry {
			rs.SetAttr("retry", true)
		}
		if h.replica == "" {
			// The pick itself failed — shed/unroutable terminal hops.
			rs.SetAttr("error", h.err)
			continue
		}
		rs.SetAttr("replica", h.replica)
		rs.SetAttr("reason", h.reason)
		us := root.AddChild(trace.NewSpan("upstream", h.pickEnd, h.fwdEnd))
		us.SetAttr("hop", i)
		us.SetAttr("replica", h.replica)
		if h.err != "" {
			us.SetAttr("error", h.err)
		} else {
			us.SetAttr("status", h.status)
		}
	}
	g.traces.Add(&trace.Trace{ID: id, Endpoint: endpoint, Root: root})
}

// Tier fetch states reported per tier in a stitched trace.
const (
	TierOK          = "ok"
	TierUnreachable = "unreachable"
	TierNotFound    = "not_found"
	TierUnknown     = "unknown_replica"
)

// TierFetch reports one tier's contribution to a stitched trace.
type TierFetch struct {
	Tier    string `json:"tier"` // "gateway" or "replica"
	Replica string `json:"replica,omitempty"`
	State   string `json:"state"`
	Error   string `json:"error,omitempty"`
	Spans   int    `json:"spans"`
}

// StitchedTrace is the body of the gateway's GET /debug/dv/trace/{id}:
// the gateway's hop tree with the replica's own span tree(s) grafted
// under the upstream span that carried the request. Partial is true
// when the replica tier could not be fully merged — the response is
// then an explicitly-marked partial tree, never a 500.
type StitchedTrace struct {
	ID       string      `json:"id"`
	Endpoint string      `json:"endpoint"`
	Partial  bool        `json:"partial"`
	Tiers    []TierFetch `json:"tiers"`
	Root     *trace.Span `json:"root"`
}

// handleTrace serves one stitched cross-tier trace.
func (g *Gateway) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		obs.WriteError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	if g.traces == nil {
		obs.WriteError(w, http.StatusNotFound, "tracing disabled (run dvgateway with -trace-sample > 0)")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/debug/dv/trace/")
	if id == "" {
		obs.WriteError(w, http.StatusBadRequest, "missing trace id: GET /debug/dv/trace/{id}")
		return
	}
	tr := g.traces.Get(id)
	if tr == nil {
		obs.WriteError(w, http.StatusNotFound, "no trace "+id+" (evicted, unsampled, or never seen)")
		return
	}
	obs.WriteJSON(w, http.StatusOK, g.stitch(r.Context(), tr))
}

// lastUpstream returns the gateway tree's last answered upstream span —
// the hop whose response the client actually received and therefore the
// graft point for the replica's tree.
func lastUpstream(root *trace.Span) *trace.Span {
	var last *trace.Span
	for _, c := range root.Children {
		if c.Name == "upstream" {
			if _, failed := c.Attrs["error"]; !failed {
				last = c
			}
		}
	}
	return last
}

// stitch merges the replica's span tree(s) for tr.ID under the gateway
// tree's final upstream span. The gateway tree is cloned first so the
// stored copy stays immutable. Any replica-side failure degrades to a
// partial tree with the tier's fetch state marked — the gateway spans
// are always served.
func (g *Gateway) stitch(ctx context.Context, tr *trace.Trace) StitchedTrace {
	root := trace.CloneSpan(tr.Root)
	st := StitchedTrace{
		ID:       tr.ID,
		Endpoint: tr.Endpoint,
		Root:     root,
		Tiers:    []TierFetch{{Tier: "gateway", State: TierOK, Spans: trace.CountSpans(root)}},
	}
	target := lastUpstream(root)
	if target == nil {
		// The request never got a replica answer (shed, unroutable, all
		// transports failed): the gateway tree is the whole story.
		return st
	}
	name, _ := target.Attrs["replica"].(string)
	tier := TierFetch{Tier: "replica", Replica: name}
	rep := g.replicaByName(name)
	if rep == nil {
		tier.State = TierUnknown
	} else {
		tier = g.fetchAndGraft(ctx, rep, tr, target, tier)
	}
	st.Partial = tier.State != TierOK
	st.Tiers = append(st.Tiers, tier)
	return st
}

// fetchAndGraft pulls the replica's trace for tr.ID (or, for batch
// requests, its per-item {id}.{i} traces) and grafts each tree under
// the target span, marked with the tier it came from.
func (g *Gateway) fetchAndGraft(ctx context.Context, rep *replica, tr *trace.Trace, target *trace.Span, tier TierFetch) TierFetch {
	graft := func(rt *trace.Trace) {
		rt.Root.SetAttr("tier", "replica")
		rt.Root.SetAttr("replica", rep.name)
		rt.Root.SetAttr("trace_id", rt.ID)
		target.AddChild(rt.Root)
		tier.Spans += trace.CountSpans(rt.Root)
	}
	rt, state, err := g.fetchReplicaTrace(ctx, rep, tr.ID)
	if state == TierUnreachable {
		tier.State = TierUnreachable
		if err != nil {
			tier.Error = err.Error()
		}
		return tier
	}
	if rt != nil {
		graft(rt)
		tier.State = TierOK
		return tier
	}
	// No trace under the base ID. Batch requests are traced per item on
	// the replica ({base}.{i}), so probe item IDs until the first miss.
	if tr.Endpoint == "batch" {
		for i := 0; i < stitchItemProbes; i++ {
			it, istate, _ := g.fetchReplicaTrace(ctx, rep, trace.ItemID(tr.ID, i))
			if it == nil {
				if istate == TierUnreachable {
					tier.State = TierUnreachable
					return tier
				}
				break
			}
			graft(it)
		}
		if tier.Spans > 0 {
			tier.State = TierOK
			return tier
		}
	}
	tier.State = TierNotFound
	return tier
}

// fetchReplicaTrace GETs one trace from a replica's own trace endpoint.
// The state distinguishes transport failure (unreachable — the partial
// marker the degraded-path tests pin) from a replica that answered but
// has no such trace.
func (g *Gateway) fetchReplicaTrace(ctx context.Context, rep *replica, id string) (*trace.Trace, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.base+"/debug/dv/trace/"+id, nil)
	if err != nil {
		return nil, TierUnreachable, err
	}
	client := *g.client
	client.Timeout = g.cfg.ProbeTimeout
	resp, err := client.Do(req)
	if err != nil {
		return nil, TierUnreachable, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, TierNotFound, nil
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return nil, TierUnreachable, fmt.Errorf("reading replica trace: %w", err)
	}
	rt, err := trace.DecodeTrace(raw)
	if err != nil {
		return nil, TierNotFound, err
	}
	return rt, TierOK, nil
}

// replicaByName resolves a configured replica by its rendezvous name.
func (g *Gateway) replicaByName(name string) *replica {
	for _, r := range g.replicas {
		if r.name == name {
			return r
		}
	}
	return nil
}
