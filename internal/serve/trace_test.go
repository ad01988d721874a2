package serve

// End-to-end battery for the request-scoped observability layer:
// per-verdict traces, the flight recorder, the drift watch, and the
// explain path. All of it rides the same fixture detector as
// serve_test.go.

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"deepvalidation"
	"deepvalidation/internal/core"
	"deepvalidation/internal/obs"
	"deepvalidation/internal/telemetry"
	"deepvalidation/internal/trace"
)

// getJSON GETs url and decodes the JSON body into out, returning the
// status code.
func getJSON(t testing.TB, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decoding %s response %q: %v", url, data, err)
		}
	}
	return resp.StatusCode
}

// legacyValidatorPath strips the drift reference from the fixture
// validator and saves the result — a stand-in for artifacts written
// before the reference existed.
func legacyValidatorPath(t testing.TB) string {
	t.Helper()
	val, err := core.LoadValidator(testValPath)
	if err != nil {
		t.Fatal(err)
	}
	val.DriftProbs, val.DriftQuantiles = nil, nil
	path := t.TempDir() + "/legacy.validator"
	if err := val.Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestExplainPerLayer(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	det := loadDetector(t)
	img, _ := testImages(23, 1)

	var want deepvalidation.Detail
	wv, err := det.CheckDetailed(img[0], &want)
	if err != nil {
		t.Fatal(err)
	}

	// Default: no per_layer in the body.
	resp, body := post(t, ts.URL+"/v1/check", checkBody(t, img[0]))
	if resp.StatusCode != http.StatusOK || strings.Contains(body, "per_layer") {
		t.Fatalf("plain check: status %d body %q — per_layer must be absent", resp.StatusCode, body)
	}

	assertExplained := func(body string, ctx string) {
		t.Helper()
		var vr VerdictResponse
		if err := json.Unmarshal([]byte(body), &vr); err != nil {
			t.Fatalf("%s: decoding %q: %v", ctx, body, err)
		}
		sameVerdict(t, vr, wv, ctx)
		if len(vr.PerLayer) != len(want.Layers) {
			t.Fatalf("%s: per_layer has %d entries, want %d (%v)", ctx, len(vr.PerLayer), len(want.Layers), vr.PerLayer)
		}
		for i, l := range want.Layers {
			got, ok := vr.PerLayer[l]
			if !ok || math.Float64bits(got) != math.Float64bits(want.PerLayer[i]) {
				t.Fatalf("%s: per_layer[%d] = %v (present %v), want %v", ctx, l, got, ok, want.PerLayer[i])
			}
		}
	}

	// Body flag.
	b, _ := json.Marshal(CheckRequest{Channels: img[0].Channels, Height: img[0].Height, Width: img[0].Width, Pixels: img[0].Pixels, Explain: true})
	resp, body = post(t, ts.URL+"/v1/check", b)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain check: status %d body %q", resp.StatusCode, body)
	}
	assertExplained(body, "explain body flag")

	// Query flag.
	resp, body = post(t, ts.URL+"/v1/check?explain=1", checkBody(t, img[0]))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("?explain=1 check: status %d body %q", resp.StatusCode, body)
	}
	assertExplained(body, "explain query flag")

	// Batch-level flag explains every member.
	imgs, _ := testImages(24, 3)
	reqs := make([]CheckRequest, len(imgs))
	for i, im := range imgs {
		reqs[i] = CheckRequest{Channels: im.Channels, Height: im.Height, Width: im.Width, Pixels: im.Pixels}
	}
	bb, _ := json.Marshal(BatchRequest{Images: reqs, Explain: true})
	resp, body = post(t, ts.URL+"/v1/batch", bb)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain batch: status %d body %q", resp.StatusCode, body)
	}
	var br BatchResponse
	if err := json.Unmarshal([]byte(body), &br); err != nil {
		t.Fatal(err)
	}
	for i, vr := range br.Verdicts {
		if len(vr.PerLayer) != len(want.Layers) {
			t.Fatalf("batch verdict %d: per_layer has %d entries, want %d", i, len(vr.PerLayer), len(want.Layers))
		}
	}
}

func TestTraceEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{TraceSample: 1})
	img, _ := testImages(29, 1)

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/check", strings.NewReader(string(checkBody(t, img[0]))))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(trace.HeaderTraceID, "triage-007")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced check status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get(trace.HeaderTraceID); got != "triage-007" {
		t.Fatalf("response %s = %q, want the injected id echoed", trace.HeaderTraceID, got)
	}

	var tr trace.Trace
	if code := getJSON(t, ts.URL+"/debug/dv/trace/triage-007", &tr); code != http.StatusOK {
		t.Fatalf("GET trace = %d, want 200", code)
	}
	if tr.ID != "triage-007" || tr.Endpoint != "check" || tr.Root == nil {
		t.Fatalf("trace = %+v, want id triage-007 endpoint check with a root span", tr)
	}
	if tr.Root.Name != "verdict" {
		t.Fatalf("root span = %q, want verdict", tr.Root.Name)
	}
	stages := map[string]*trace.Span{}
	for _, c := range tr.Root.Children {
		stages[c.Name] = c
	}
	for _, name := range []string{"admission", "batch_wait", "dispatch", "score"} {
		sp, ok := stages[name]
		if !ok {
			t.Fatalf("span tree lacks stage %q (have %v)", name, tr.Root.Children)
		}
		if sp.DurNs < 0 {
			t.Fatalf("stage %q has negative duration %d", name, sp.DurNs)
		}
	}
	score := stages["score"]
	if len(score.Children) == 0 || score.Children[0].Name != "forward" {
		t.Fatalf("score span children = %+v, want forward first", score.Children)
	}
	det := loadDetector(t)
	var d deepvalidation.Detail
	if _, err := det.CheckDetailed(img[0], &d); err != nil {
		t.Fatal(err)
	}
	layerSpans := score.Children[1:]
	if len(layerSpans) != len(d.Layers) {
		t.Fatalf("score has %d svm layer spans, want %d", len(layerSpans), len(d.Layers))
	}
	for i, sp := range layerSpans {
		if !strings.HasPrefix(sp.Name, "svm_layer_") {
			t.Fatalf("layer span %d named %q", i, sp.Name)
		}
		dv, ok := sp.Attrs["d"].(float64)
		if !ok {
			t.Fatalf("layer span %q lacks a numeric d attribute: %v", sp.Name, sp.Attrs)
		}
		if math.Float64bits(dv) != math.Float64bits(d.PerLayer[i]) {
			t.Fatalf("layer span %q d = %v, want %v", sp.Name, dv, d.PerLayer[i])
		}
	}
	if _, ok := tr.Root.Attrs["joint_d"]; !ok {
		t.Fatalf("root attrs %v lack joint_d", tr.Root.Attrs)
	}

	// Batch members get {base}.{i} item traces.
	bimgs, _ := testImages(31, 2)
	breq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/batch", strings.NewReader(string(batchBody(t, bimgs))))
	if err != nil {
		t.Fatal(err)
	}
	breq.Header.Set(trace.HeaderTraceID, "triage-batch")
	bresp, err := http.DefaultClient.Do(breq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, bresp.Body)
	bresp.Body.Close()
	if bresp.StatusCode != http.StatusOK {
		t.Fatalf("traced batch status = %d", bresp.StatusCode)
	}
	for i := 0; i < len(bimgs); i++ {
		var it trace.Trace
		if code := getJSON(t, ts.URL+"/debug/dv/trace/"+trace.ItemID("triage-batch", i), &it); code != http.StatusOK {
			t.Fatalf("GET batch item trace %d = %d, want 200", i, code)
		}
		if it.Endpoint != "batch" {
			t.Fatalf("item trace %d endpoint = %q", i, it.Endpoint)
		}
	}
}

func TestTraceGeneratedIDEchoed(t *testing.T) {
	_, ts := newTestServer(t, Config{TraceSample: 1})
	img, _ := testImages(37, 1)
	resp, _ := post(t, ts.URL+"/v1/check", checkBody(t, img[0]))
	id := resp.Header.Get(trace.HeaderTraceID)
	if !trace.ValidID(id) {
		t.Fatalf("generated trace id %q is not valid", id)
	}
	if code := getJSON(t, ts.URL+"/debug/dv/trace/"+id, &trace.Trace{}); code != http.StatusOK {
		t.Fatalf("GET generated trace = %d, want 200 at sample rate 1", code)
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	img, _ := testImages(41, 1)
	resp, _ := post(t, ts.URL+"/v1/check", checkBody(t, img[0]))
	if got := resp.Header.Get(trace.HeaderTraceID); got != "" {
		t.Fatalf("untraced response carries %s = %q", trace.HeaderTraceID, got)
	}
	if code := getJSON(t, ts.URL+"/debug/dv/trace/whatever", nil); code != http.StatusNotFound {
		t.Fatalf("trace endpoint with tracing off = %d, want 404", code)
	}
}

// TestTracingOffVerdictsIdentical pins the zero-overhead contract: a
// server with every observability feature disabled and one with all of
// them on serve bit-identical verdicts.
func TestTracingOffVerdictsIdentical(t *testing.T) {
	_, off := newTestServer(t, Config{FlightSize: -1, DriftWindow: -1})
	_, on := newTestServer(t, Config{TraceSample: 1})
	imgs, _ := testImages(43, 8)
	for i, img := range imgs {
		_, plainBody := post(t, off.URL+"/v1/check", checkBody(t, img))
		req, err := http.NewRequest(http.MethodPost, on.URL+"/v1/check", strings.NewReader(string(checkBody(t, img))))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(trace.HeaderTraceID, trace.ItemID("ident", i))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		tracedBody, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if plainBody != string(tracedBody) {
			t.Fatalf("image %d: traced body %q != untraced body %q", i, tracedBody, plainBody)
		}
	}
}

func TestFlightRecorder(t *testing.T) {
	// ε = -inf flags every verdict, so ?valid=false has matches.
	det := loadDetector(t)
	det.SetEpsilon(math.Inf(-1))
	s, err := New(deepvalidation.NewHandle(det), Config{TraceSample: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, s)

	imgs, _ := testImages(47, 5)
	var wantLabel int
	{
		ref := loadDetector(t)
		v, err := ref.Check(imgs[0])
		if err != nil {
			t.Fatal(err)
		}
		wantLabel = v.Label
	}
	for _, img := range imgs {
		resp, body := post(t, ts.URL+"/v1/check", checkBody(t, img))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("check status = %d body %q", resp.StatusCode, body)
		}
	}

	var fr FlightResponse
	if code := getJSON(t, ts.URL+"/debug/dv/flight", &fr); code != http.StatusOK {
		t.Fatalf("GET flight = %d, want 200", code)
	}
	if fr.Count != len(imgs) {
		t.Fatalf("flight holds %d entries, want %d", fr.Count, len(imgs))
	}
	// Newest first, and every entry carries the per-layer breakdown.
	for i, e := range fr.Entries {
		if i > 0 && e.Seq >= fr.Entries[i-1].Seq {
			t.Fatalf("entries not newest-first: seq[%d]=%d seq[%d]=%d", i-1, fr.Entries[i-1].Seq, i, e.Seq)
		}
		if e.Outcome != trace.OutcomeOK || e.Valid {
			t.Fatalf("entry %d = %+v, want an ok, invalid verdict", i, e)
		}
		if len(e.PerLayer) == 0 || len(e.Layers) != len(e.PerLayer) {
			t.Fatalf("entry %d lacks per-layer discrepancies: %+v", i, e)
		}
		if e.TraceID == "" {
			t.Fatalf("entry %d lacks a trace id", i)
		}
	}

	// ?valid=false matches everything here; ?valid=true nothing.
	if code := getJSON(t, ts.URL+"/debug/dv/flight?valid=false", &fr); code != http.StatusOK || fr.Count != len(imgs) {
		t.Fatalf("valid=false: code %d count %d, want 200 %d", code, fr.Count, len(imgs))
	}
	if code := getJSON(t, ts.URL+"/debug/dv/flight?valid=true", &fr); code != http.StatusOK || fr.Count != 0 {
		t.Fatalf("valid=true: code %d count %d, want 200 0", code, fr.Count)
	}
	// Class filter.
	if code := getJSON(t, ts.URL+"/debug/dv/flight?class="+strconv.Itoa(wantLabel), &fr); code != http.StatusOK || fr.Count == 0 {
		t.Fatalf("class=%d: code %d count %d, want matches", wantLabel, code, fr.Count)
	}
	for _, e := range fr.Entries {
		if e.Label != wantLabel {
			t.Fatalf("class filter leaked label %d", e.Label)
		}
	}
	// Limit.
	if code := getJSON(t, ts.URL+"/debug/dv/flight?limit=2", &fr); code != http.StatusOK || fr.Count != 2 {
		t.Fatalf("limit=2: code %d count %d", code, fr.Count)
	}
	// Bad filter values are 400s.
	if code := getJSON(t, ts.URL+"/debug/dv/flight?valid=maybe", nil); code != http.StatusBadRequest {
		t.Fatalf("valid=maybe = %d, want 400", code)
	}
}

// TestFlightEntriesKeepTheirRows: every flight entry and wide event on
// /debug/dv/flight and /debug/dv/events carries the per-layer values of
// its own verdict after 300 more requests. The detector writes each row
// into storage the request record's member reuses for the next request,
// and the recorders copy it into storage their slots own, so a
// recorder that kept the member's slice instead would show later
// verdicts' values here.
func TestFlightEntriesKeepTheirRows(t *testing.T) {
	const more = 300
	imgs, _ := testImages(53, 8)
	ref := loadDetector(t)
	rows := make([][]float64, len(imgs))
	for k, img := range imgs {
		var d deepvalidation.Detail
		if _, err := ref.CheckDetailed(img, &d); err != nil {
			t.Fatal(err)
		}
		rows[k] = d.PerLayer
	}
	events := obs.New(obs.Config{Ring: 512, Rates: map[string]float64{obs.TypeRequest: -1}})
	s, err := New(deepvalidation.NewHandle(loadDetector(t)), Config{FlightSize: 512, Events: events})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	h := s.Handler()
	serve := func(method, path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", method, path, rec.Code, rec.Body.String())
		}
		return rec
	}
	// want[i] is the image behind the i-th verdict filed: a batch of
	// four first, then one check after another.
	var want []int
	serve(http.MethodPost, "/v1/batch", batchBody(t, imgs[:4]))
	want = append(want, 0, 1, 2, 3)
	for i := 0; i < more; i++ {
		k := (i + 4) % len(imgs)
		serve(http.MethodPost, "/v1/check", checkBody(t, imgs[k]))
		want = append(want, k)
	}

	sameRow := func(what string, i int, layers []int, got []float64) {
		t.Helper()
		wantRow := rows[want[i]]
		if len(got) != len(wantRow) || len(layers) != len(wantRow) {
			t.Fatalf("%s %d: %d layers and %d values, want %d", what, i, len(layers), len(got), len(wantRow))
		}
		for j := range got {
			if math.Float64bits(got[j]) != math.Float64bits(wantRow[j]) {
				t.Fatalf("%s %d (image %d): per_layer[%d] = %v, want %v", what, i, want[i], j, got[j], wantRow[j])
			}
		}
	}
	var fr FlightResponse
	if err := json.Unmarshal(serve(http.MethodGet, "/debug/dv/flight", nil).Body.Bytes(), &fr); err != nil {
		t.Fatal(err)
	}
	if fr.Count != len(want) {
		t.Fatalf("flight holds %d entries, want %d", fr.Count, len(want))
	}
	for n, e := range fr.Entries { // newest first
		sameRow("flight entry", len(want)-1-n, e.Layers, e.PerLayer)
	}
	evs := events.Snapshot(obs.Filter{Type: obs.TypeRequest})
	if len(evs) != len(want) {
		t.Fatalf("event ring holds %d request events, want %d", len(evs), len(want))
	}
	for n, e := range evs {
		sameRow("request event", len(want)-1-n, e.Layers, e.PerLayer)
	}
}

func TestFlightDeadlineOutcome(t *testing.T) {
	_, ts := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	img, _ := testImages(53, 1)
	resp, _ := post(t, ts.URL+"/v1/check", checkBody(t, img[0]))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	var fr FlightResponse
	if code := getJSON(t, ts.URL+"/debug/dv/flight?outcome=deadline", &fr); code != http.StatusOK || fr.Count == 0 {
		t.Fatalf("outcome=deadline: code %d count %d, want a recorded deadline", code, fr.Count)
	}
	if fr.Entries[0].PerLayer != nil {
		t.Fatalf("deadline entry carries per-layer data: %+v", fr.Entries[0])
	}
}

func TestFlightDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{FlightSize: -1})
	if code := getJSON(t, ts.URL+"/debug/dv/flight", nil); code != http.StatusNotFound {
		t.Fatalf("disabled flight endpoint = %d, want 404", code)
	}
}

func TestDriftEndpointAndReadyz(t *testing.T) {
	_, ts := newTestServer(t, Config{QueueDepth: 128, MaxBatch: 16})

	var st trace.DriftStatus
	if code := getJSON(t, ts.URL+"/debug/dv/drift", &st); code != http.StatusOK {
		t.Fatalf("GET drift = %d, want 200", code)
	}
	if !st.Enabled || !st.Warming {
		t.Fatalf("fresh drift status = %+v, want enabled and warming", st)
	}

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if lines[0] != "ready" {
		t.Fatalf("readyz first line = %q, want ready (parsers gate on it)", lines[0])
	}
	if len(lines) < 2 || !strings.HasPrefix(lines[1], "drift: warming") {
		t.Fatalf("readyz drift line = %q, want drift: warming", data)
	}

	// Feed the window past MinFill: in-distribution traffic must not
	// alarm. Only accepted verdicts enter the window, so send enough
	// images that the valid subset clears MinFill.
	imgs, _ := testImages(59, 80)
	resp2, body := post(t, ts.URL+"/v1/batch", batchBody(t, imgs))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d body %q", resp2.StatusCode, body)
	}
	st = trace.DriftStatus{} // fresh decode: warming is omitempty
	if code := getJSON(t, ts.URL+"/debug/dv/drift", &st); code != http.StatusOK {
		t.Fatalf("GET drift = %d", code)
	}
	if st.Warming || st.Fill < st.MinFill {
		t.Fatalf("drift status after %d images = %+v, want warmed", len(imgs), st)
	}
	if len(st.Scores) != len(st.Layers) || len(st.Layers) == 0 {
		t.Fatalf("drift scores %v for layers %v", st.Scores, st.Layers)
	}
	if st.Alarm {
		t.Fatalf("in-distribution traffic raised the drift alarm: %+v", st)
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(data), "drift: ok") {
		t.Fatalf("readyz after warm-up = %q, want drift: ok", data)
	}
}

func TestDriftDisabledByConfigAndLegacy(t *testing.T) {
	// Explicitly off.
	_, ts := newTestServer(t, Config{DriftWindow: -1})
	var st trace.DriftStatus
	if code := getJSON(t, ts.URL+"/debug/dv/drift", &st); code != http.StatusOK || st.Enabled {
		t.Fatalf("DriftWindow -1: code %d status %+v, want disabled", code, st)
	}

	// Legacy artifact: no reference, watch degrades to disabled.
	legacy, err := deepvalidation.Load(testModelPath, legacyValidatorPath(t))
	if err != nil {
		t.Fatal(err)
	}
	legacy.SetEpsilon(testEps)
	s, err := New(deepvalidation.NewHandle(legacy), Config{})
	if err != nil {
		t.Fatal(err)
	}
	lts := newHTTPServer(t, s)
	if code := getJSON(t, lts.URL+"/debug/dv/drift", &st); code != http.StatusOK || st.Enabled {
		t.Fatalf("legacy artifact: code %d status %+v, want disabled", code, st)
	}
	resp, err := http.Get(lts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(data), "drift: disabled") {
		t.Fatalf("legacy readyz = %q, want drift: disabled", data)
	}
}

// TestReloadRebuildsDrift swaps a legacy detector in and a full one
// back, asserting the drift watch follows the loaded artifact.
func TestReloadRebuildsDrift(t *testing.T) {
	legacyVal := legacyValidatorPath(t)
	valPath := testValPath
	current := &valPath
	s, ts := newTestServer(t, Config{Loader: func() (*deepvalidation.Detector, error) {
		return deepvalidation.Load(testModelPath, *current)
	}})
	if !s.DriftStatus().Enabled {
		t.Fatal("drift watch not enabled on the full fixture artifact")
	}

	*current = legacyVal
	if _, err := s.Reload(); err != nil {
		t.Fatal(err)
	}
	var st trace.DriftStatus
	if code := getJSON(t, ts.URL+"/debug/dv/drift", &st); code != http.StatusOK || st.Enabled {
		t.Fatalf("after legacy reload: code %d status %+v, want disabled", code, st)
	}

	*current = testValPath
	if _, err := s.Reload(); err != nil {
		t.Fatal(err)
	}
	if code := getJSON(t, ts.URL+"/debug/dv/drift", &st); code != http.StatusOK || !st.Enabled {
		t.Fatalf("after full reload: code %d status %+v, want enabled", code, st)
	}
}

// TestDriftGaugesExported asserts the dv_drift_* metrics reach the
// registry once the window warms.
func TestDriftGaugesExported(t *testing.T) {
	reg := telemetry.New()
	_, ts := newTestServer(t, Config{QueueDepth: 128, MaxBatch: 16, Registry: reg})
	imgs, _ := testImages(61, 80)
	resp, body := post(t, ts.URL+"/v1/batch", batchBody(t, imgs))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d body %q", resp.StatusCode, body)
	}
	var st trace.DriftStatus
	if code := getJSON(t, ts.URL+"/debug/dv/drift", &st); code != http.StatusOK {
		t.Fatalf("GET drift = %d", code)
	}
	if reg.Gauge(trace.MetricDriftWindowFill).Value() != float64(st.Fill) {
		t.Fatalf("%s gauge = %v, want %d", trace.MetricDriftWindowFill, reg.Gauge(trace.MetricDriftWindowFill).Value(), st.Fill)
	}
	if got := reg.Gauge(trace.MetricDriftAlarm).Value(); got != 0 {
		t.Fatalf("%s = %v on in-distribution traffic", trace.MetricDriftAlarm, got)
	}
}

// newHTTPServer fronts an already-constructed Server for tests that
// need a custom detector.
func newHTTPServer(t testing.TB, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts
}
