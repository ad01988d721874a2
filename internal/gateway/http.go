package gateway

import (
	"encoding/json"
	"fmt"
	"net/http"

	"deepvalidation/internal/obs"
)

// Handler returns the gateway's routing table:
//
//	POST /v1/check            — route one image to a replica (retried per budget)
//	POST /v1/batch            — route one batch to a replica
//	POST /admin/rollout       — staged artifact rollout across the fleet
//	GET  /admin/replicas      — per-replica health, load, and artifact identity
//	GET  /healthz             — gateway process liveness
//	GET  /readyz              — fleet routability (200 while ≥1 replica is in rotation)
//	GET  /debug/dv/trace/{id} — stitched cross-tier span tree (gateway hops + replica verdict)
//	GET  /debug/dv/fleet      — every replica's /readyz, drift, SLO, and artifact identity in one view
//	GET  /debug/dv/flight     — recent verdicts merged across replicas (?valid=, ?class=, ?outcome=, ?limit=, ?replica=)
//	GET  /debug/dv/events     — recent gateway wide events (?type=, ?level=, ?limit=, ...)
//	GET  /debug/dv/slo        — gateway SLO burn-rate engine status per objective and window
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/check", func(w http.ResponseWriter, r *http.Request) {
		g.reqCheck.Inc()
		g.proxy("check", w, r)
	})
	mux.HandleFunc("/v1/batch", func(w http.ResponseWriter, r *http.Request) {
		g.reqBatch.Inc()
		g.proxy("batch", w, r)
	})
	mux.HandleFunc("/admin/rollout", g.handleRollout)
	mux.HandleFunc("/admin/replicas", g.handleReplicas)
	mux.HandleFunc("/healthz", g.handleHealthz)
	mux.HandleFunc("/readyz", g.handleReadyz)
	mux.HandleFunc("/debug/dv/trace/", g.handleTrace)
	mux.HandleFunc("/debug/dv/fleet", g.handleFleet)
	mux.HandleFunc("/debug/dv/flight", g.handleFleetFlight)
	mux.HandleFunc("/debug/dv/events", func(w http.ResponseWriter, r *http.Request) {
		obs.HandleEvents(g.events, w, r)
	})
	mux.HandleFunc("/debug/dv/slo", func(w http.ResponseWriter, r *http.Request) {
		obs.HandleSLO(g.slo, w, r)
	})
	return mux
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// ReplicaStatus is one replica's row in /admin/replicas and the /readyz
// JSON tail.
type ReplicaStatus struct {
	Name       string `json:"name"`
	Addr       string `json:"addr"`
	State      string `json:"state"`
	InRotation bool   `json:"in_rotation"`
	Inflight   int64  `json:"inflight"`
	FailStreak int    `json:"fail_streak"`
	// ModelSHA256 and ValidatorSHA256 are the artifact checksums last
	// seen on the replica's /readyz JSON tail — the identity rollouts
	// converge on.
	ModelSHA256     string `json:"model_sha256,omitempty"`
	ValidatorSHA256 string `json:"validator_sha256,omitempty"`
	LastError       string `json:"last_error,omitempty"`
}

// status snapshots one replica under its lock.
func (r *replica) status() ReplicaStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	return ReplicaStatus{
		Name:            r.name,
		Addr:            r.addr,
		State:           r.hm.state.String(),
		InRotation:      r.hm.state.InRotation(),
		Inflight:        r.inflight.Load(),
		FailStreak:      r.hm.failStreak,
		ModelSHA256:     r.lastReadyz.ModelSHA256,
		ValidatorSHA256: r.lastReadyz.ValidatorSHA256,
		LastError:       r.lastErr,
	}
}

// ReplicaStatuses snapshots the whole fleet in configuration order.
func (g *Gateway) ReplicaStatuses() []ReplicaStatus {
	out := make([]ReplicaStatus, len(g.replicas))
	for i, r := range g.replicas {
		out[i] = r.status()
	}
	return out
}

// replicasResponse is the body of GET /admin/replicas.
type replicasResponse struct {
	Count      int             `json:"count"`
	InRotation int             `json:"in_rotation"`
	Replicas   []ReplicaStatus `json:"replicas"`
}

func (g *Gateway) handleReplicas(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		obs.WriteError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	obs.WriteJSON(w, http.StatusOK, replicasResponse{
		Count:      len(g.replicas),
		InRotation: g.InRotation(),
		Replicas:   g.ReplicaStatuses(),
	})
}

// ReadyzBody is the machine-parseable JSON tail of the gateway's own
// /readyz, mirroring dvserve's layout: plain-text lines first for
// probes and smoke scripts, one JSON line last for machines.
type ReadyzBody struct {
	Status     string          `json:"status"`
	InRotation int             `json:"in_rotation"`
	SLO        obs.Status      `json:"slo"`
	Replicas   []ReplicaStatus `json:"replicas"`
}

// handleReadyz reports fleet routability. Like dvserve's /readyz the
// body is layered: line 1 the bare status word, line 2 the rotation
// summary, line 3 the SLO summary, line 4 the full JSON document —
// the same plain-text-then-JSON-tail contract dvserve keeps, so one
// probe grammar works on both tiers. The gateway is ready while at
// least one replica is in rotation — a degraded fleet that can still
// serve should keep receiving traffic.
func (g *Gateway) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	statuses := g.ReplicaStatuses()
	in := 0
	for _, st := range statuses {
		if st.InRotation {
			in++
		}
	}
	status, code := "ready", http.StatusOK
	if in == 0 {
		status, code = "unroutable", http.StatusServiceUnavailable
	}
	slo := g.SLOStatus()
	w.WriteHeader(code)
	fmt.Fprintln(w, status)
	fmt.Fprintf(w, "replicas: %d/%d in rotation\n", in, len(statuses))
	fmt.Fprintln(w, slo.Line())
	body, err := json.Marshal(ReadyzBody{Status: status, InRotation: in, SLO: slo, Replicas: statuses})
	if err == nil {
		w.Write(body)
		fmt.Fprintln(w)
	}
}
