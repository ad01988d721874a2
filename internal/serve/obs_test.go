package serve

// End-to-end battery for the serving side of internal/obs: the wide
// event log on /debug/dv/events, the SLO engine on /debug/dv/slo and
// /readyz, breach events cross-linking trace IDs, and the byte-identity
// guard that pins the obs-disabled serving path to its pre-obs
// behavior.

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"deepvalidation"
	"deepvalidation/internal/obs"
	"deepvalidation/internal/telemetry"
	"deepvalidation/internal/trace"
)

// TestObsOffResponsesIdentical pins the zero-overhead contract from
// the obs side: a server with every obs feature disabled and one with
// the event log, runtime collector, and SLO engine all running serve
// byte-identical /v1/check and /v1/batch responses.
func TestObsOffResponsesIdentical(t *testing.T) {
	_, off := newTestServer(t, Config{FlightSize: -1, DriftWindow: -1})
	reg := telemetry.New()
	_, on := newTestServer(t, Config{
		Registry:    reg,
		Events:      obs.New(obs.Config{Registry: reg}),
		SLO:         SLOOptions{SLOOptions: obs.SLOOptions{Enabled: true}},
		TraceSample: 0, // header-less requests stay untraced so responses match
	})
	rt := obs.NewRuntime(reg, nil)
	rt.Collect()

	imgs, _ := testImages(43, 8)
	for i, img := range imgs {
		_, plain := post(t, off.URL+"/v1/check", checkBody(t, img))
		_, instrumented := post(t, on.URL+"/v1/check", checkBody(t, img))
		if plain != instrumented {
			t.Fatalf("image %d: instrumented body %q != plain body %q", i, instrumented, plain)
		}
	}
	_, plain := post(t, off.URL+"/v1/batch", batchBody(t, imgs))
	_, instrumented := post(t, on.URL+"/v1/batch", batchBody(t, imgs))
	if plain != instrumented {
		t.Fatalf("batch: instrumented body %q != plain body %q", instrumented, plain)
	}
}

// TestEventsEndpoint drives traffic through a server with the event
// log attached and exercises /debug/dv/events: unfiltered listing,
// each triage filter, and filter validation.
func TestEventsEndpoint(t *testing.T) {
	events := obs.New(obs.Config{})
	s, ts := newTestServer(t, Config{Events: events, TraceSample: 1})
	_ = s

	imgs, _ := testImages(51, 6)
	for _, img := range imgs {
		resp, body := post(t, ts.URL+"/v1/check", checkBody(t, img))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("check = %d body %q", resp.StatusCode, body)
		}
	}

	var er obs.EventsResponse
	if code := getJSON(t, ts.URL+"/debug/dv/events", &er); code != http.StatusOK {
		t.Fatalf("GET events = %d, want 200", code)
	}
	// The ring holds the 6 request events plus the server-ready
	// lifecycle event.
	reqEvents := 0
	for _, e := range er.Events {
		if e.Type == obs.TypeRequest {
			reqEvents++
			if e.TraceID == "" {
				t.Fatalf("request event carries no trace ID: %+v", e)
			}
			if e.Outcome != trace.OutcomeOK {
				t.Fatalf("request outcome = %q, want ok", e.Outcome)
			}
			if e.LatencySec <= 0 {
				t.Fatalf("request event latency = %v, want > 0", e.LatencySec)
			}
			if len(e.PerLayer) == 0 || len(e.Layers) != len(e.PerLayer) {
				t.Fatalf("request event missing per-layer payload: %+v", e)
			}
		}
	}
	if reqEvents != len(imgs) {
		t.Fatalf("ring holds %d request events, want %d", reqEvents, len(imgs))
	}
	// Newest first.
	for i := 1; i < len(er.Events); i++ {
		if er.Events[i].Seq >= er.Events[i-1].Seq {
			t.Fatalf("events not newest-first: seq %d then %d", er.Events[i-1].Seq, er.Events[i].Seq)
		}
	}

	// Type + limit filters compose.
	if code := getJSON(t, ts.URL+"/debug/dv/events?type=request&limit=2", &er); code != http.StatusOK {
		t.Fatalf("filtered GET = %d", code)
	}
	if len(er.Events) != 2 || er.Events[0].Type != obs.TypeRequest {
		t.Fatalf("type+limit filter returned %+v", er.Events)
	}
	// A lifecycle filter must exclude every request event.
	if code := getJSON(t, ts.URL+"/debug/dv/events?type=lifecycle", &er); code != http.StatusOK {
		t.Fatalf("lifecycle GET = %d", code)
	}
	for _, e := range er.Events {
		if e.Type != obs.TypeLifecycle {
			t.Fatalf("lifecycle filter returned %+v", e)
		}
	}
	// Contradictory filter: nothing was shed, so the combination of a
	// matching type and a non-occurring outcome matches nothing.
	if code := getJSON(t, ts.URL+"/debug/dv/events?type=request&outcome=shed", &er); code != http.StatusOK {
		t.Fatalf("contradictory GET = %d", code)
	}
	if len(er.Events) != 0 {
		t.Fatalf("outcome=shed matched %d events, want 0", len(er.Events))
	}

	// Malformed filters are 400s, not silent matches-everything.
	for _, q := range []string{"?valid=maybe", "?class=x", "?limit=many", "?level=shouty"} {
		if code := getJSON(t, ts.URL+"/debug/dv/events"+q, nil); code != http.StatusBadRequest {
			t.Fatalf("GET events%s = %d, want 400", q, code)
		}
	}
}

// TestEventsEndpointDisabled pins the 404 contract when no event log
// is attached.
func TestEventsEndpointDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if code := getJSON(t, ts.URL+"/debug/dv/events", nil); code != http.StatusNotFound {
		t.Fatalf("events without a logger = %d, want 404", code)
	}
}

// TestReadyzStructuredBody checks the /readyz contract: plain-text
// status word on line 1 (probe greps), drift line 2, slo line 3, and a
// machine-parseable JSON summary on the final line.
func TestReadyzStructuredBody(t *testing.T) {
	reg := telemetry.New()
	_, ts := newTestServer(t, Config{
		Registry: reg,
		Events:   obs.New(obs.Config{Registry: reg}),
		SLO:      SLOOptions{SLOOptions: obs.SLOOptions{Enabled: true}},
	})
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz = %d body %q", resp.StatusCode, raw)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("readyz has %d lines %q, want 4", len(lines), raw)
	}
	if lines[0] != "ready" {
		t.Fatalf("line 1 = %q, want ready", lines[0])
	}
	if !strings.HasPrefix(lines[1], "drift: ") {
		t.Fatalf("line 2 = %q, want drift summary", lines[1])
	}
	if !strings.HasPrefix(lines[2], "slo: ") {
		t.Fatalf("line 3 = %q, want slo summary", lines[2])
	}
	var body struct {
		Status           string            `json:"status"`
		ReloadFailStreak int               `json:"reload_fail_streak"`
		Drift            trace.DriftStatus `json:"drift"`
		SLO              obs.Status        `json:"slo"`
	}
	if err := json.Unmarshal([]byte(lines[3]), &body); err != nil {
		t.Fatalf("line 4 is not JSON: %q: %v", lines[3], err)
	}
	if body.Status != "ready" || body.ReloadFailStreak != 0 {
		t.Fatalf("JSON body = %+v", body)
	}
	if !body.SLO.Enabled {
		t.Fatal("JSON body reports SLO disabled on an SLO-enabled server")
	}
}

// TestSLOEndpointAndMetrics checks /debug/dv/slo and the dv_slo_*
// series after a deterministic tick over healthy traffic.
func TestSLOEndpointAndMetrics(t *testing.T) {
	reg := telemetry.New()
	s, ts := newTestServer(t, Config{
		Registry: reg,
		SLO:      SLOOptions{SLOOptions: obs.SLOOptions{Enabled: true}},
	})
	imgs, _ := testImages(52, 4)
	for _, img := range imgs {
		post(t, ts.URL+"/v1/check", checkBody(t, img))
	}
	s.SLOTick()

	var st obs.Status
	if code := getJSON(t, ts.URL+"/debug/dv/slo", &st); code != http.StatusOK {
		t.Fatalf("GET slo = %d, want 200", code)
	}
	if !st.Enabled || st.Breaching {
		t.Fatalf("healthy status = %+v", st)
	}
	names := map[string]bool{}
	for _, o := range st.Objectives {
		names[o.Name] = true
		if o.Breach {
			t.Fatalf("objective %s breaching on healthy traffic: %+v", o.Name, o)
		}
		if len(o.Windows) != len(obs.DefaultWindows) {
			t.Fatalf("objective %s has %d windows", o.Name, len(o.Windows))
		}
	}
	for _, want := range []string{"availability", "latency", "quarantine"} {
		if !names[want] {
			t.Fatalf("objective %q missing from %v", want, names)
		}
	}

	snap := reg.Snapshot()
	for _, g := range []string{
		obs.MetricSLOObjective + `{slo="availability"}`,
		obs.MetricSLOBurnRate + `{slo="availability",window="5m"}`,
		obs.MetricSLOBreach + `{slo="latency"}`,
	} {
		if _, ok := snap.Gauges[g]; !ok {
			t.Fatalf("gauge %q missing from snapshot", g)
		}
	}
}

// TestSLOBreachEventCrossLinksTraces is the acceptance-criteria path
// in miniature: force 429 shedding, tick the engine, and require an
// availability burn-rate breach event whose payload cross-links at
// least one trace ID that /debug/dv/trace/{id} can resolve.
func TestSLOBreachEventCrossLinksTraces(t *testing.T) {
	reg := telemetry.New()
	events := obs.New(obs.Config{Registry: reg})
	s, ts := newTestServer(t, Config{
		QueueDepth: 1, MaxBatch: 1, Workers: 1,
		RequestTimeout: 30 * time.Second,
		Registry:       reg,
		Events:         events,
		TraceSample:    1,
		SLO:            SLOOptions{SLOOptions: obs.SLOOptions{Enabled: true}},
	})
	img, _ := testImages(17, 1)
	body := checkBody(t, img[0])

	// Baseline sample before the burst: burn rates difference against it.
	s.SLOTick()

	// Deterministic overload (the TestQueueFullSheds pattern): occupy
	// the single worker slot, let one request block waiting for it and one
	// fill the queue, then every further request sheds.
	slot := <-s.slots
	type reply struct{ status int }
	async := func() chan reply {
		c := make(chan reply, 1)
		go func() {
			resp, _ := post(t, ts.URL+"/v1/check", body)
			c <- reply{resp.StatusCode}
		}()
		return c
	}
	a := async()
	waitFor(t, "batcher to pull request A", func() bool { return s.pulls.Load() == 1 })
	b := async()
	waitFor(t, "request B to queue", func() bool { return s.QueueLen() == 1 })
	shedIDs := 0
	for i := 0; i < 3; i++ {
		resp, _ := post(t, ts.URL+"/v1/check", body)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("overload request %d = %d, want 429", i, resp.StatusCode)
		}
		if resp.Header.Get(trace.HeaderTraceID) != "" {
			shedIDs++
		}
	}
	if shedIDs == 0 {
		t.Fatal("no shed response carried a trace ID")
	}
	s.slots <- slot
	for _, c := range []chan reply{a, b} {
		select {
		case r := <-c:
			if r.status != http.StatusOK {
				t.Fatalf("held request finished with %d", r.status)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("held request did not finish")
		}
	}

	// Second sample: 3 sheds out of 6 requests burns the 0.1% budget
	// at ~500x on every window (each falls back to the baseline sample).
	s.SLOTick()

	st := s.SLOStatus()
	var avail *obs.ObjectiveStatus
	for i := range st.Objectives {
		if st.Objectives[i].Name == "availability" {
			avail = &st.Objectives[i]
		}
	}
	if avail == nil || !avail.Breach {
		t.Fatalf("availability not breaching after shed burst: %+v", st)
	}

	breaches := events.Snapshot(obs.Filter{Type: obs.TypeSLOBreach})
	var breach *obs.Event
	for i := range breaches {
		if breaches[i].SLO == "availability" && breaches[i].Level == obs.LevelError {
			breach = &breaches[i]
			break
		}
	}
	if breach == nil {
		t.Fatalf("no availability slo_breach event; got %+v", breaches)
	}
	if len(breach.TraceIDs) == 0 {
		t.Fatalf("breach event cross-links no trace IDs: %+v", breach)
	}
	for _, w := range obs.DefaultWindows {
		if breach.Burn[w.Name] < st.BurnThreshold {
			t.Fatalf("breach burn[%s] = %.1f below threshold %.1f", w.Name, breach.Burn[w.Name], st.BurnThreshold)
		}
	}
	// The cross-linked IDs must resolve on the trace endpoint.
	var tr trace.Trace
	if code := getJSON(t, ts.URL+"/debug/dv/trace/"+breach.TraceIDs[0], &tr); code != http.StatusOK {
		t.Fatalf("GET trace %s = %d, want 200", breach.TraceIDs[0], code)
	}
	if tr.ID != breach.TraceIDs[0] {
		t.Fatalf("trace id = %q, want %q", tr.ID, breach.TraceIDs[0])
	}

	// /debug/dv/events?type=slo_breach surfaces the same event over HTTP.
	var er obs.EventsResponse
	if code := getJSON(t, ts.URL+"/debug/dv/events?type=slo_breach&level=error", &er); code != http.StatusOK {
		t.Fatalf("GET events = %d", code)
	}
	if len(er.Events) == 0 || er.Events[0].SLO != "availability" {
		t.Fatalf("slo_breach filter returned %+v", er.Events)
	}
}

// TestReloadFailureEvent checks the non-request event sources on the
// serve path: a failed hot reload emits a reload error event.
func TestReloadFailureEvent(t *testing.T) {
	events := obs.New(obs.Config{})
	s, _ := newTestServer(t, Config{
		Events: events,
		Loader: func() (*deepvalidation.Detector, error) {
			return nil, errors.New("artifacts corrupted")
		},
	})
	if _, err := s.Reload(); err == nil {
		t.Fatal("reload with a failing loader succeeded")
	}
	evs := events.Snapshot(obs.Filter{Type: obs.TypeReload})
	if len(evs) == 0 {
		t.Fatal("no reload event emitted")
	}
	e := evs[0]
	if e.Level != obs.LevelError || e.Err == "" {
		t.Fatalf("reload failure event = %+v, want error level with message", e)
	}
	if e.Extra["fail_streak"] == nil {
		t.Fatalf("reload event missing fail_streak: %+v", e.Extra)
	}
}

// TestReloadEventsCarryLoadTime: both reload events, the rejection and
// the hot swap, report in latency_sec what the attempt spent loading,
// checking and warming the pair.
func TestReloadEventsCarryLoadTime(t *testing.T) {
	const loadTime = 5 * time.Millisecond
	events := obs.New(obs.Config{})
	fail := true
	s, _ := newTestServer(t, Config{
		Events: events,
		Loader: func() (*deepvalidation.Detector, error) {
			time.Sleep(loadTime)
			if fail {
				return nil, errors.New("artifacts corrupted")
			}
			return deepvalidation.Load(testModelPath, testValPath)
		},
	})
	if _, err := s.Reload(); err == nil {
		t.Fatal("reload with a failing loader succeeded")
	}
	fail = false
	if _, err := s.Reload(); err != nil {
		t.Fatal(err)
	}
	evs := events.Snapshot(obs.Filter{Type: obs.TypeReload})
	if len(evs) != 2 {
		t.Fatalf("got %d reload events, want 2", len(evs))
	}
	for _, e := range evs {
		if e.LatencySec < loadTime.Seconds() {
			t.Errorf("%q: latency_sec = %v, want at least the loader's %v", e.Msg, e.LatencySec, loadTime)
		}
	}
}
