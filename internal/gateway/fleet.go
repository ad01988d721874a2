package gateway

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"

	"deepvalidation/internal/obs"
	"deepvalidation/internal/serve"
	"deepvalidation/internal/trace"
)

// The fleet aggregation surface: GET /debug/dv/fleet merges every
// replica's /readyz (its own drift scores, SLO status, and artifact
// checksums) with the gateway's health-machine view into one JSON
// document, and GET /debug/dv/flight fans the flight-recorder triage
// filters out to every replica and merges the recent verdicts. Both
// are read-only — an aggregation fetch never feeds the health machine,
// so triage cannot perturb routing — and both degrade per replica:
// an unreachable replica is marked, never a 500.

// FleetReplica is one replica's row in /debug/dv/fleet: the gateway's
// routing view (embedded) plus the replica's own /readyz document
// fetched live for this request.
type FleetReplica struct {
	ReplicaStatus
	// Fetch is this fetch's result: "ok" or "unreachable".
	Fetch      string            `json:"fetch"`
	FetchError string            `json:"fetch_error,omitempty"`
	Readyz     *serve.ReadyzBody `json:"readyz,omitempty"`
}

// FleetResponse is the body of GET /debug/dv/fleet — the fleet's
// single pane of glass.
type FleetResponse struct {
	Count      int            `json:"count"`
	InRotation int            `json:"in_rotation"`
	Partial    bool           `json:"partial"`
	GatewaySLO obs.Status     `json:"gateway_slo"`
	Replicas   []FleetReplica `json:"replicas"`
}

// handleFleet fans one /readyz fetch out to every configured replica
// concurrently and merges the results with the gateway's own view.
func (g *Gateway) handleFleet(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		obs.WriteError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	rows := make([]FleetReplica, len(g.replicas))
	var wg sync.WaitGroup
	for i, rep := range g.replicas {
		wg.Add(1)
		go func(i int, rep *replica) {
			defer wg.Done()
			row := FleetReplica{ReplicaStatus: rep.status(), Fetch: TierOK}
			body, err := g.fetchReadyz(rep, g.cfg.ProbeTimeout)
			if err != nil {
				row.Fetch = TierUnreachable
				row.FetchError = err.Error()
			} else {
				row.Readyz = &body
			}
			rows[i] = row
		}(i, rep)
	}
	wg.Wait()
	resp := FleetResponse{
		Count:      len(rows),
		InRotation: g.InRotation(),
		GatewaySLO: g.SLOStatus(),
		Replicas:   rows,
	}
	for _, row := range rows {
		if row.Fetch != TierOK {
			resp.Partial = true
		}
	}
	obs.WriteJSON(w, http.StatusOK, resp)
}

// FleetFlightEntry is one merged flight-recorder entry, annotated with
// the replica it was recorded on.
type FleetFlightEntry struct {
	Replica string `json:"replica"`
	trace.Entry
}

// FleetFlightResponse is the body of the gateway's GET
// /debug/dv/flight: recent verdicts merged across the fleet, newest
// first, with per-replica fetch states.
type FleetFlightResponse struct {
	Count    int                `json:"count"`
	Partial  bool               `json:"partial"`
	Replicas map[string]string  `json:"replicas"`
	Entries  []FleetFlightEntry `json:"entries"`
}

// handleFleetFlight validates the triage filters locally (the same 400s
// a replica would give), fans the query out to every replica — or just
// one, under the gateway-only ?replica= axis — and merges the entries
// newest-first. The merged set honors ?limit=; each replica fetch also
// carries it, so no replica ships more than the client can receive.
func (g *Gateway) handleFleetFlight(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		obs.WriteError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	q := r.URL.Query()
	f, err := trace.ParseFilter(q)
	if err != nil {
		obs.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	targets := g.replicas
	if name := q.Get("replica"); name != "" {
		rep := g.replicaByName(name)
		if rep == nil {
			obs.WriteError(w, http.StatusBadRequest, "bad replica filter: no replica named "+name)
			return
		}
		targets = []*replica{rep}
	}
	q.Del("replica")
	query := q.Encode()
	results := make([]flightFetch, len(targets))
	var wg sync.WaitGroup
	for i, rep := range targets {
		wg.Add(1)
		go func(i int, rep *replica) {
			defer wg.Done()
			results[i] = g.fetchFlight(rep, query)
		}(i, rep)
	}
	wg.Wait()
	resp := FleetFlightResponse{
		Replicas: make(map[string]string, len(targets)),
		Entries:  []FleetFlightEntry{},
	}
	for i, rep := range targets {
		resp.Replicas[rep.name] = results[i].state
		if results[i].state != TierOK {
			resp.Partial = true
			continue
		}
		for _, e := range results[i].entries {
			resp.Entries = append(resp.Entries, FleetFlightEntry{Replica: rep.name, Entry: e})
		}
	}
	sort.SliceStable(resp.Entries, func(a, b int) bool {
		return resp.Entries[a].TimeNs > resp.Entries[b].TimeNs
	})
	if f.Limit > 0 && len(resp.Entries) > f.Limit {
		resp.Entries = resp.Entries[:f.Limit]
	}
	resp.Count = len(resp.Entries)
	obs.WriteJSON(w, http.StatusOK, resp)
}

// flightFetch is one replica's contribution to the merged flight view.
type flightFetch struct {
	state   string
	entries []trace.Entry
}

// fetchFlight pulls one replica's flight recorder with the forwarded
// query. Transport failure marks the replica unreachable; a non-200
// (e.g. the recorder disabled on that replica) is reported as its
// status so the operator sees which replica opted out.
func (g *Gateway) fetchFlight(rep *replica, query string) (out flightFetch) {
	url := rep.base + "/debug/dv/flight"
	if query != "" {
		url += "?" + query
	}
	client := *g.client
	client.Timeout = g.cfg.ProbeTimeout
	resp, err := client.Get(url)
	if err != nil {
		out.state = TierUnreachable
		return out
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		out.state = TierUnreachable
		return out
	}
	if resp.StatusCode != http.StatusOK {
		out.state = fmt.Sprintf("status %d", resp.StatusCode)
		return out
	}
	var fr serve.FlightResponse
	if err := json.Unmarshal(raw, &fr); err != nil {
		out.state = "bad_response"
		return out
	}
	out.state = TierOK
	out.entries = fr.Entries
	return out
}
