package gateway

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"deepvalidation"
	"deepvalidation/internal/obs"
	"deepvalidation/internal/serve"
	"deepvalidation/internal/telemetry"
	"deepvalidation/internal/trace"
)

// Tests for the gateway's observability plane: hop-span tracing and
// cross-tier stitching, the fleet aggregation surface, per-outcome
// route-latency instruments, and the gateway SLO engine.

// gwGetJSON GETs url and decodes the JSON body into v, returning the
// status code. Body text rides along for failure messages.
func gwGetJSON(t testing.TB, url string, v any) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		if err := json.Unmarshal(raw, v); err != nil {
			t.Fatalf("decoding %s: %v (body %q)", url, err, raw)
		}
	}
	return resp.StatusCode, string(raw)
}

func gwBatchBody(t testing.TB, imgs []deepvalidation.Image) []byte {
	t.Helper()
	req := serve.BatchRequest{}
	for _, img := range imgs {
		req.Images = append(req.Images, serve.CheckRequest{
			Channels: img.Channels, Height: img.Height, Width: img.Width, Pixels: img.Pixels,
		})
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// obsOnGateway builds a second, fully instrumented gateway over the
// same replica fleet procs: tracing at 1.0, SLO engine on, wide events.
func obsOnGateway(t testing.TB, procs []*replicaProc) (*Gateway, *telemetry.Registry, *obs.Logger) {
	t.Helper()
	specs := make([]ReplicaSpec, len(procs))
	for i, p := range procs {
		specs[i] = ReplicaSpec{Name: p.name, Addr: p.addr, ValidatorPath: p.valP}
	}
	reg := telemetry.New()
	events := obs.New(obs.Config{Registry: reg})
	g, err := New(Config{
		Replicas:      specs,
		ProbeInterval: -1,
		DrainAfter:    2,
		Registry:      reg,
		Events:        events,
		TraceSample:   1,
		SLO:           SLOOptions{SLOOptions: obs.SLOOptions{Enabled: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	g.ProbeAll()
	return g, reg, events
}

// TestGatewayObsOffResponsesIdentical is the acceptance criterion for
// the zero-cost-off contract: with every gateway observability sink off,
// proxied /v1/check and /v1/batch responses are byte-identical to the
// fully instrumented gateway's, and no trace header is invented.
func TestGatewayObsOffResponsesIdentical(t *testing.T) {
	gOff, procs, _ := newFleet(t, 1, nil)
	gOn, _, _ := obsOnGateway(t, procs)
	tsOff, tsOn := gwServer(t, gOff), gwServer(t, gOn)

	imgs, _ := testImages(11, 3)
	check := checkBody(t, imgs[0])
	batch := gwBatchBody(t, imgs)
	for _, c := range []struct {
		path string
		body []byte
	}{
		{"/v1/check", check},
		{"/v1/batch", batch},
	} {
		respOff, bodyOff := post(t, tsOff.URL+c.path, c.body)
		respOn, bodyOn := post(t, tsOn.URL+c.path, c.body)
		if respOff.StatusCode != http.StatusOK || respOn.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d / %d, want 200", c.path, respOff.StatusCode, respOn.StatusCode)
		}
		if bodyOff != bodyOn {
			t.Fatalf("%s bodies diverge with sinks on:\noff: %s\non:  %s", c.path, bodyOff, bodyOn)
		}
		if h := respOff.Header.Get(trace.HeaderTraceID); h != "" {
			t.Fatalf("sinks-off gateway minted a trace header %q", h)
		}
		if h := respOn.Header.Get(trace.HeaderTraceID); !trace.ValidID(h) {
			t.Fatalf("instrumented gateway echoed invalid trace header %q", h)
		}
	}
}

// TestGatewayMintedAndEchoedTraceIDs pins the identity contract: the
// gateway mints a valid ID when the client sends none, echoes a
// client-supplied ID verbatim, and a client-supplied ID always resolves
// on the gateway's own trace endpoint.
func TestGatewayMintedAndEchoedTraceIDs(t *testing.T) {
	_, procs, _ := newFleet(t, 2, nil)
	g, _, _ := obsOnGateway(t, procs)
	ts := gwServer(t, g)
	body := checkBody(t, func() deepvalidation.Image { i, _ := testImages(7, 1); return i[0] }())

	resp, _ := post(t, ts.URL+"/v1/check", body)
	minted := resp.Header.Get(trace.HeaderTraceID)
	if !trace.ValidID(minted) {
		t.Fatalf("minted trace ID %q not valid", minted)
	}

	resp, _ = postTraced(t, ts.URL+"/v1/check", "triage-check-1", string(body))
	if got := resp.Header.Get(trace.HeaderTraceID); got != "triage-check-1" {
		t.Fatalf("client trace ID echoed as %q, want verbatim", got)
	}
	var st StitchedTrace
	if code, raw := gwGetJSON(t, ts.URL+"/debug/dv/trace/triage-check-1", &st); code != http.StatusOK {
		t.Fatalf("GET injected trace = %d (%s)", code, raw)
	}
	if st.ID != "triage-check-1" || st.Root == nil || st.Root.Name != "gateway" {
		t.Fatalf("stitched trace = %+v", st)
	}

	// The bad-ID and wrong-method edges of the endpoint.
	if code, raw := gwGetJSON(t, ts.URL+"/debug/dv/trace/nope-never-seen", nil); code != http.StatusNotFound {
		t.Fatalf("unknown trace = %d (%s)", code, raw)
	}
	if code, raw := gwGetJSON(t, ts.URL+"/debug/dv/trace/", nil); code != http.StatusBadRequest {
		t.Fatalf("empty trace id = %d (%s)", code, raw)
	}
}

// TestGatewayTraceDisabled pins the tracing-off endpoint message.
func TestGatewayTraceDisabled(t *testing.T) {
	g, _, _ := newFleet(t, 1, nil)
	ts := gwServer(t, g)
	code, raw := gwGetJSON(t, ts.URL+"/debug/dv/trace/x", nil)
	if code != http.StatusNotFound || !strings.Contains(raw, "tracing disabled") {
		t.Fatalf("tracing-off trace endpoint = %d (%s)", code, raw)
	}
}

// TestStitchedTraceTwoTiers drives the tentpole path end to end: an
// injected trace ID flows gateway → replica, and the gateway's trace
// endpoint returns ONE merged tree holding both tiers' spans. Killing
// the replica afterwards degrades the same lookup to an explicitly
// marked partial tree — never a 500.
func TestStitchedTraceTwoTiers(t *testing.T) {
	_, procs, _ := newFleet(t, 2, nil, func(c *serve.Config) { c.TraceSample = 1 })
	g, _, _ := obsOnGateway(t, procs)
	ts := gwServer(t, g)
	imgs, _ := testImages(23, 2)

	if resp, body := postTraced(t, ts.URL+"/v1/check", "stitch-check-1", string(checkBody(t, imgs[0]))); resp.StatusCode != http.StatusOK {
		t.Fatalf("traced check = %d (%s)", resp.StatusCode, body)
	}
	var st StitchedTrace
	if code, raw := gwGetJSON(t, ts.URL+"/debug/dv/trace/stitch-check-1", &st); code != http.StatusOK {
		t.Fatalf("GET stitched trace = %d (%s)", code, raw)
	}
	if st.Partial {
		t.Fatalf("stitched trace partial with replica up: %+v", st.Tiers)
	}
	if len(st.Tiers) != 2 || st.Tiers[0].Tier != "gateway" || st.Tiers[1].Tier != "replica" || st.Tiers[1].State != TierOK {
		t.Fatalf("tiers = %+v", st.Tiers)
	}
	// Both tiers' spans live in the one tree: the gateway's route and
	// upstream hops, and the replica's verdict tree grafted beneath.
	if trace.FindSpan(st.Root, func(s *trace.Span) bool { return s.Name == "route" }) == nil {
		t.Fatal("merged tree missing gateway route span")
	}
	up := trace.FindSpan(st.Root, func(s *trace.Span) bool { return s.Name == "upstream" })
	if up == nil {
		t.Fatal("merged tree missing gateway upstream span")
	}
	verdict := trace.FindSpan(up, func(s *trace.Span) bool { return s.Name == "verdict" })
	if verdict == nil {
		t.Fatal("replica verdict tree not grafted under the upstream span")
	}
	if tier, _ := verdict.Attrs["tier"].(string); tier != "replica" {
		t.Fatalf("grafted root tier attr = %v", verdict.Attrs["tier"])
	}
	if trace.FindSpan(verdict, func(s *trace.Span) bool { return s.Name == "score" }) == nil {
		t.Fatal("grafted replica tree missing its score span")
	}

	// Batch requests are traced per item on the replica; the stitcher
	// probes {id}.{i} and grafts every item tree.
	if resp, body := postTraced(t, ts.URL+"/v1/batch", "stitch-batch-1", string(gwBatchBody(t, imgs))); resp.StatusCode != http.StatusOK {
		t.Fatalf("traced batch = %d (%s)", resp.StatusCode, body)
	}
	var bt StitchedTrace
	if code, raw := gwGetJSON(t, ts.URL+"/debug/dv/trace/stitch-batch-1", &bt); code != http.StatusOK {
		t.Fatalf("GET stitched batch trace = %d (%s)", code, raw)
	}
	if bt.Partial || bt.Tiers[1].State != TierOK {
		t.Fatalf("batch stitch tiers = %+v", bt.Tiers)
	}
	grafted := 0
	bup := trace.FindSpan(bt.Root, func(s *trace.Span) bool { return s.Name == "upstream" })
	for _, c := range bup.Children {
		if c.Name == "verdict" {
			grafted++
		}
	}
	if grafted != len(imgs) {
		t.Fatalf("grafted %d item trees, want %d", grafted, len(imgs))
	}

	// Kill the replica that served the check; the same lookup must now
	// return 200 with the replica tier marked unreachable.
	name := st.Tiers[1].Replica
	for _, p := range procs {
		if p.name == name {
			p.kill()
		}
	}
	var part StitchedTrace
	if code, raw := gwGetJSON(t, ts.URL+"/debug/dv/trace/stitch-check-1", &part); code != http.StatusOK {
		t.Fatalf("GET with replica down = %d (%s), want 200", code, raw)
	}
	if !part.Partial || part.Tiers[1].State != TierUnreachable {
		t.Fatalf("degraded stitch = partial %v tiers %+v", part.Partial, part.Tiers)
	}
	if trace.FindSpan(part.Root, func(s *trace.Span) bool { return s.Name == "route" }) == nil {
		t.Fatal("partial tree lost the gateway spans")
	}
}

// TestFleetViewDegradesPerReplica checks /debug/dv/fleet: one merged
// JSON view of every replica's /readyz, and a killed replica marks only
// its own row unreachable — the endpoint never 500s.
func TestFleetViewDegradesPerReplica(t *testing.T) {
	_, procs, _ := newFleet(t, 2, nil)
	g, _, _ := obsOnGateway(t, procs)
	ts := gwServer(t, g)

	var fr FleetResponse
	if code, raw := gwGetJSON(t, ts.URL+"/debug/dv/fleet", &fr); code != http.StatusOK {
		t.Fatalf("GET fleet = %d (%s)", code, raw)
	}
	if fr.Count != 2 || fr.Partial {
		t.Fatalf("healthy fleet view = %+v", fr)
	}
	for _, row := range fr.Replicas {
		if row.Fetch != TierOK || row.Readyz == nil {
			t.Fatalf("replica row %s = %+v", row.Name, row)
		}
		if row.Readyz.ValidatorSHA256 == "" {
			t.Fatalf("replica %s readyz missing validator sha", row.Name)
		}
	}
	if !fr.GatewaySLO.Enabled {
		t.Fatal("fleet view reports gateway SLO disabled on an SLO-enabled gateway")
	}

	procs[1].kill()
	if code, raw := gwGetJSON(t, ts.URL+"/debug/dv/fleet", &fr); code != http.StatusOK {
		t.Fatalf("GET fleet with replica down = %d (%s), want 200", code, raw)
	}
	if !fr.Partial {
		t.Fatal("fleet view not marked partial with a replica down")
	}
	states := map[string]string{}
	for _, row := range fr.Replicas {
		states[row.Name] = row.Fetch
	}
	if states[procs[0].name] != TierOK || states[procs[1].name] != TierUnreachable {
		t.Fatalf("fleet fetch states = %v", states)
	}
}

// TestFleetFlightMergesAndFilters checks the gateway's fleet-wide
// flight view: merged entries annotated per replica, newest first, the
// gateway-only ?replica= axis, and 400s on bad filter values that match
// the replica's own messages exactly.
func TestFleetFlightMergesAndFilters(t *testing.T) {
	_, procs, _ := newFleet(t, 2, nil)
	g, _, _ := obsOnGateway(t, procs)
	ts := gwServer(t, g)
	for _, b := range distinctBodies(t, 6) {
		if resp, body := post(t, ts.URL+"/v1/check", b); resp.StatusCode != http.StatusOK {
			t.Fatalf("check = %d (%s)", resp.StatusCode, body)
		}
	}

	var fr FleetFlightResponse
	if code, raw := gwGetJSON(t, ts.URL+"/debug/dv/flight", &fr); code != http.StatusOK {
		t.Fatalf("GET fleet flight = %d (%s)", code, raw)
	}
	if fr.Count != 6 || fr.Partial {
		t.Fatalf("fleet flight = count %d partial %v", fr.Count, fr.Partial)
	}
	perReplica := map[string]int{}
	for i, e := range fr.Entries {
		if e.Replica == "" || e.Outcome == "" {
			t.Fatalf("entry %d missing annotation: %+v", i, e)
		}
		perReplica[e.Replica]++
		if i > 0 && fr.Entries[i-1].TimeNs < e.TimeNs {
			t.Fatalf("entries not newest-first at %d", i)
		}
	}
	if len(perReplica) != 2 {
		t.Fatalf("rendezvous spread landed on %d replicas: %v", len(perReplica), perReplica)
	}

	// The ?replica= axis narrows to one replica; ?limit= caps the merge.
	name := procs[0].name
	if code, _ := gwGetJSON(t, ts.URL+"/debug/dv/flight?replica="+name+"&limit=2", &fr); code != http.StatusOK {
		t.Fatal("replica-filtered flight failed")
	}
	if fr.Count > 2 {
		t.Fatalf("limit ignored: %d entries", fr.Count)
	}
	for _, e := range fr.Entries {
		if e.Replica != name {
			t.Fatalf("replica filter leaked entry from %s", e.Replica)
		}
	}

	// Bad filter values 400 at the gateway with the same message the
	// replica itself gives — one grammar, two tiers.
	repURL := "http://" + procs[0].addr
	for _, tc := range []string{"valid=zorp", "class=x", "limit=x"} {
		gwCode, gwBody := gwGetJSON(t, ts.URL+"/debug/dv/flight?"+tc, nil)
		repCode, repBody := gwGetJSON(t, repURL+"/debug/dv/flight?"+tc, nil)
		if gwCode != http.StatusBadRequest || repCode != http.StatusBadRequest {
			t.Fatalf("%s: gateway %d, replica %d, want 400s", tc, gwCode, repCode)
		}
		if gwBody != repBody {
			t.Fatalf("%s: gateway error %q != replica error %q", tc, gwBody, repBody)
		}
	}
	if code, raw := gwGetJSON(t, ts.URL+"/debug/dv/flight?replica=ghost", nil); code != http.StatusBadRequest ||
		!strings.Contains(raw, "bad replica filter: no replica named ghost") {
		t.Fatalf("unknown replica filter = %d (%s)", code, raw)
	}
}

// TestRouteLatencyHistogramsGolden checks the per-outcome route-latency
// instruments two ways: the Prometheus text rendering, and that the
// JSON snapshot's bucket boundaries agree with the rendered le= edges.
func TestRouteLatencyHistogramsGolden(t *testing.T) {
	_, procs, _ := newFleet(t, 1, nil)
	g, reg, _ := obsOnGateway(t, procs)
	ts := gwServer(t, g)
	for _, b := range distinctBodies(t, 3) {
		if resp, _ := post(t, ts.URL+"/v1/check", b); resp.StatusCode != http.StatusOK {
			t.Fatal("check failed")
		}
	}
	// Drain the fleet so one request sheds (503 unroutable → outcome
	// "shed") and the shed histogram fills too.
	procs[0].kill()
	g.ProbeAll()
	g.ProbeAll()
	if resp, _ := post(t, ts.URL+"/v1/check", distinctBodies(t, 1)[0]); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatal("expected unroutable 503 after drain")
	}

	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE dv_gw_route_latency_seconds histogram",
		`dv_gw_route_latency_seconds_bucket{outcome="ok",le="+Inf"} 3`,
		`dv_gw_route_latency_seconds_count{outcome="ok"} 3`,
		`dv_gw_route_latency_seconds_count{outcome="shed"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, text)
		}
	}

	// JSON-vs-Prometheus consistency: every bucket boundary in the
	// snapshot must appear as an le= edge with the same cumulative count.
	snap := reg.Snapshot()
	h, ok := snap.Histograms[telemetry.Label(MetricRouteLatency, "outcome", "ok")]
	if !ok {
		t.Fatalf("snapshot missing ok-outcome histogram; have %v", len(snap.Histograms))
	}
	if len(h.Buckets) != len(telemetry.DefLatencyBuckets)+1 {
		t.Fatalf("snapshot has %d buckets, want %d+Inf", len(h.Buckets), len(telemetry.DefLatencyBuckets))
	}
	for _, b := range h.Buckets {
		le := "+Inf"
		if !strings.Contains(fmt.Sprint(b.UpperBound), "Inf") {
			le = strings.TrimRight(strings.TrimRight(fmt.Sprintf("%g", b.UpperBound), "0"), ".")
		}
		line := fmt.Sprintf(`dv_gw_route_latency_seconds_bucket{outcome="ok",le="%s"} %d`, le, b.Count)
		if !strings.Contains(text, line) {
			t.Fatalf("snapshot bucket %v/%d has no matching prometheus line %q:\n%s", b.UpperBound, b.Count, line, text)
		}
	}
}

// TestGatewaySLOBreachCrossLinksTraces is the fleet-tier acceptance
// path: drain the fleet, shed a burst, tick the engine, and require an
// availability breach event whose cross-linked trace IDs resolve on the
// gateway's own trace endpoint. Also pins /debug/dv/slo and the /readyz
// SLO line + JSON tail.
func TestGatewaySLOBreachCrossLinksTraces(t *testing.T) {
	_, procs, _ := newFleet(t, 1, nil)
	g, _, events := obsOnGateway(t, procs)
	ts := gwServer(t, g)
	body := distinctBodies(t, 1)[0]

	if resp, _ := post(t, ts.URL+"/v1/check", body); resp.StatusCode != http.StatusOK {
		t.Fatal("baseline check failed")
	}
	g.SLOTick() // baseline sample: burn rates difference against it

	procs[0].kill()
	g.ProbeAll()
	g.ProbeAll() // DrainAfter=2 → drained, fleet unroutable
	var shedIDs []string
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("breach-%d", i)
		resp, _ := postTraced(t, ts.URL+"/v1/check", id, string(body))
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("drained fleet check = %d, want 503", resp.StatusCode)
		}
		if got := resp.Header.Get(trace.HeaderTraceID); got != id {
			t.Fatalf("shed response echoed %q, want %q", got, id)
		}
		shedIDs = append(shedIDs, id)
	}
	g.SLOTick()

	st := g.SLOStatus()
	if !st.Enabled || !st.Breaching {
		t.Fatalf("SLO status after shed burst = %+v", st)
	}
	var breach *obs.Event
	snaps := events.Snapshot(obs.Filter{Type: obs.TypeSLOBreach})
	for i := range snaps {
		if snaps[i].SLO == "availability" && snaps[i].Level == obs.LevelError {
			breach = &snaps[i]
			break
		}
	}
	if breach == nil {
		t.Fatalf("no availability breach event; got %+v", snaps)
	}
	if len(breach.TraceIDs) == 0 {
		t.Fatalf("breach event cross-links no trace IDs: %+v", breach)
	}
	// Every cross-linked ID is one of the shed requests and resolves on
	// the gateway's trace endpoint as a gateway-only (but complete) tree.
	var stitched StitchedTrace
	if code, raw := gwGetJSON(t, ts.URL+"/debug/dv/trace/"+breach.TraceIDs[0], &stitched); code != http.StatusOK {
		t.Fatalf("cross-linked trace = %d (%s)", code, raw)
	}
	if stitched.Partial || len(stitched.Tiers) != 1 {
		t.Fatalf("shed trace should be gateway-only and complete: %+v", stitched.Tiers)
	}
	found := false
	for _, id := range shedIDs {
		if id == stitched.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("cross-linked ID %q is not one of the shed requests %v", stitched.ID, shedIDs)
	}

	// /debug/dv/slo serves the same status; /debug/dv/events serves the
	// breach; /readyz carries the slo line and the JSON tail.
	var hst obs.Status
	if code, _ := gwGetJSON(t, ts.URL+"/debug/dv/slo", &hst); code != http.StatusOK || !hst.Breaching {
		t.Fatalf("GET /debug/dv/slo = %d breaching %v", code, hst.Breaching)
	}
	var er obs.EventsResponse
	if code, _ := gwGetJSON(t, ts.URL+"/debug/dv/events?type=slo_breach&level=error", &er); code != http.StatusOK || len(er.Events) == 0 {
		t.Fatalf("GET events = %d with %d events", code, len(er.Events))
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 4 {
		t.Fatalf("readyz body has %d lines, want 4:\n%s", len(lines), raw)
	}
	if !strings.HasPrefix(lines[2], "slo: BREACH") {
		t.Fatalf("readyz slo line = %q", lines[2])
	}
	var rb ReadyzBody
	if err := json.Unmarshal([]byte(lines[3]), &rb); err != nil {
		t.Fatalf("readyz JSON tail: %v (%q)", err, lines[3])
	}
	if !rb.SLO.Enabled || !rb.SLO.Breaching {
		t.Fatalf("readyz JSON tail SLO = %+v", rb.SLO)
	}
}

// TestGatewayReadyzQuietTail checks the layered /readyz format on a
// healthy, SLO-less gateway: the slo line degrades to "slo: disabled"
// and the JSON tail still parses with the same struct.
func TestGatewayReadyzQuietTail(t *testing.T) {
	g, _, _ := newFleet(t, 1, nil)
	ts := gwServer(t, g)
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 4 || lines[0] != "ready" || lines[2] != "slo: disabled" {
		t.Fatalf("readyz body = %q", raw)
	}
	var rb ReadyzBody
	if err := json.Unmarshal([]byte(lines[3]), &rb); err != nil {
		t.Fatal(err)
	}
	if rb.Status != "ready" || rb.InRotation != 1 || rb.SLO.Enabled {
		t.Fatalf("readyz JSON tail = %+v", rb)
	}
}

// rawReply is one bodyless request's answer: status, Allow header and
// body bytes.
type rawReply struct {
	status      int
	allow, body string
}

func doRaw(t *testing.T, method, url string) rawReply {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return rawReply{resp.StatusCode, resp.Header.Get("Allow"), string(raw)}
}

// TestDebugHandlersBothTiers pins the shared observability plane: a
// replica and the gateway mount the same obs handlers on
// /debug/dv/slo and /debug/dv/events, so with SLOs and events off and
// on every method and filter answers byte-identical status, Allow
// header, and body on both tiers. The one exception is the body of an
// enabled GET /debug/dv/slo, which lists each tier's own objectives;
// there the shared header fields must agree.
func TestDebugHandlersBothTiers(t *testing.T) {
	cases := []struct {
		method, path string
		want         map[bool]rawReply // keyed by plane on; absent: tier-specific
	}{
		{"GET", "/debug/dv/slo", map[bool]rawReply{false: {200, "", `{"enabled":false,"breaching":false}` + "\n"}}},
		{"POST", "/debug/dv/slo", map[bool]rawReply{
			false: {405, "GET", `{"error":"use GET"}` + "\n"},
			true:  {405, "GET", `{"error":"use GET"}` + "\n"},
		}},
		{"GET", "/debug/dv/events?type=no_such_type", map[bool]rawReply{
			false: {404, "", `{"error":"event log disabled (run with -log)"}` + "\n"},
			true:  {200, "", `{"count":0,"events":[]}` + "\n"},
		}},
		{"GET", "/debug/dv/events?level=bogus", map[bool]rawReply{
			false: {404, "", `{"error":"event log disabled (run with -log)"}` + "\n"},
			true:  {400, "", `{"error":"bad level filter: obs: unknown level \"bogus\" (want debug, info, warn or error)"}` + "\n"},
		}},
		// The shared triage axes answer the flight recorder's 400 texts,
		// and ?level= is checked before them.
		{"GET", "/debug/dv/events?valid=maybe", map[bool]rawReply{
			false: {404, "", `{"error":"event log disabled (run with -log)"}` + "\n"},
			true:  {400, "", `{"error":"bad valid filter: strconv.ParseBool: parsing \"maybe\": invalid syntax"}` + "\n"},
		}},
		{"GET", "/debug/dv/events?class=x", map[bool]rawReply{
			false: {404, "", `{"error":"event log disabled (run with -log)"}` + "\n"},
			true:  {400, "", `{"error":"bad class filter: strconv.Atoi: parsing \"x\": invalid syntax"}` + "\n"},
		}},
		{"GET", "/debug/dv/events?limit=many", map[bool]rawReply{
			false: {404, "", `{"error":"event log disabled (run with -log)"}` + "\n"},
			true:  {400, "", `{"error":"bad limit: strconv.Atoi: parsing \"many\": invalid syntax"}` + "\n"},
		}},
		{"GET", "/debug/dv/events?valid=maybe&level=bogus", map[bool]rawReply{
			false: {404, "", `{"error":"event log disabled (run with -log)"}` + "\n"},
			true:  {400, "", `{"error":"bad level filter: obs: unknown level \"bogus\" (want debug, info, warn or error)"}` + "\n"},
		}},
		{"POST", "/debug/dv/events", map[bool]rawReply{
			false: {405, "GET", `{"error":"use GET"}` + "\n"},
			true:  {405, "GET", `{"error":"use GET"}` + "\n"},
		}},
	}
	for _, on := range []bool{false, true} {
		t.Run(fmt.Sprintf("plane_on=%v", on), func(t *testing.T) {
			tune := func(c *Config) {}
			repTune := func(c *serve.Config) {}
			if on {
				tune = func(c *Config) {
					c.Events = obs.New(obs.Config{})
					c.SLO = SLOOptions{SLOOptions: obs.SLOOptions{Enabled: true, Interval: time.Hour}}
				}
				repTune = func(c *serve.Config) {
					c.Registry = telemetry.New()
					c.Events = obs.New(obs.Config{})
					c.SLO = serve.SLOOptions{SLOOptions: obs.SLOOptions{Enabled: true, Interval: time.Hour}}
				}
			}
			g, procs, _ := newFleet(t, 1, tune, repTune)
			tiers := []struct{ name, url string }{
				{"dvserve", "http://" + procs[0].addr},
				{"gateway", gwServer(t, g).URL},
			}
			for _, tc := range cases {
				replica := doRaw(t, tc.method, tiers[0].url+tc.path)
				gateway := doRaw(t, tc.method, tiers[1].url+tc.path)
				if want, ok := tc.want[on]; ok {
					if replica != want || gateway != want {
						t.Fatalf("%s %s:\ndvserve: %+v\ngateway: %+v\nwant:    %+v", tc.method, tc.path, replica, gateway, want)
					}
					continue
				}
				// Enabled GET /debug/dv/slo: tier-specific objectives
				// under one shared header.
				var rs, gs obs.Status
				if err := json.Unmarshal([]byte(replica.body), &rs); err != nil || replica.status != 200 {
					t.Fatalf("dvserve %s %s = %+v (%v)", tc.method, tc.path, replica, err)
				}
				if err := json.Unmarshal([]byte(gateway.body), &gs); err != nil || gateway.status != 200 {
					t.Fatalf("gateway %s %s = %+v (%v)", tc.method, tc.path, gateway, err)
				}
				if !rs.Enabled || !gs.Enabled || rs.BurnThreshold != gs.BurnThreshold || rs.Breaching || gs.Breaching {
					t.Fatalf("enabled SLO headers differ: dvserve %+v, gateway %+v", rs, gs)
				}
			}
		})
	}
}

// TestWrongMethodEveryGuardedRoute sends the wrong method to every
// method-guarded route of both tiers: each answers 405 with an Allow
// header naming the one method it takes and the body "use METHOD". A
// wrong-method /v1/check or /v1/batch still counts as a request on
// both tiers and, on dvserve, in the endpoint's latency histogram; the
// gateway's route-latency histograms only see routed requests.
func TestWrongMethodEveryGuardedRoute(t *testing.T) {
	serveReg := telemetry.New()
	g, procs, gwReg := newFleet(t, 1, nil, func(c *serve.Config) { c.Registry = serveReg })
	tiers := []struct {
		name, url string
		routes    map[string]string // path → the method it takes
	}{
		{"dvserve", "http://" + procs[0].addr, map[string]string{
			"/v1/check": "POST", "/v1/batch": "POST", "/v1/reload": "POST", "/admin/drain": "POST",
			"/debug/dv/trace/abc": "GET", "/debug/dv/flight": "GET", "/debug/dv/drift": "GET",
			"/debug/dv/events": "GET", "/debug/dv/slo": "GET",
		}},
		{"gateway", gwServer(t, g).URL, map[string]string{
			"/v1/check": "POST", "/v1/batch": "POST", "/admin/rollout": "POST", "/admin/replicas": "GET",
			"/debug/dv/trace/abc": "GET", "/debug/dv/fleet": "GET", "/debug/dv/flight": "GET",
			"/debug/dv/events": "GET", "/debug/dv/slo": "GET",
		}},
	}
	for _, tier := range tiers {
		for path, method := range tier.routes {
			wrong := map[string][]string{"GET": {"POST", "PUT"}, "POST": {"GET", "DELETE"}}[method]
			for _, m := range wrong {
				want := rawReply{405, method, `{"error":"use ` + method + `"}` + "\n"}
				if got := doRaw(t, m, tier.url+path); got != want {
					t.Errorf("%s %s %s = %+v, want %+v", tier.name, m, path, got, want)
				}
			}
		}
	}
	ss, gs := serveReg.Snapshot(), gwReg.Snapshot()
	for _, ep := range []string{"check", "batch"} {
		if n := ss.Counters[telemetry.Label(serve.MetricRequests, "endpoint", ep)]; n != 2 {
			t.Errorf("dvserve %s requests = %d, want 2", ep, n)
		}
		if n := ss.Histograms[telemetry.Label(serve.MetricRequestLatency, "endpoint", ep)].Count; n != 2 {
			t.Errorf("dvserve %s latency observations = %d, want 2", ep, n)
		}
		if n := gs.Counters[telemetry.Label(MetricRequests, "endpoint", ep)]; n != 2 {
			t.Errorf("gateway %s requests = %d, want 2", ep, n)
		}
	}
	for name, h := range gs.Histograms {
		if strings.HasPrefix(name, MetricRouteLatency) && h.Count != 0 {
			t.Errorf("gateway %s = %d observations, want 0 (no request was routed)", name, h.Count)
		}
	}
}
