package gateway

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"time"

	"testing"

	"deepvalidation/internal/obs"
	"deepvalidation/internal/telemetry"
)

// gwBenchSnapshotPath mirrors the serve bench: snapshots merge into the
// one committed perf-trajectory file at the repo root.
const gwBenchSnapshotPath = "../../BENCH_pipeline.json"

// gwObsVariant is one gateway configuration's per-request cost in the
// snapshot. Allocations are the enforced axis (deterministic for the
// fixed workload); wall clock on the shared 1-CPU bench host is noise
// at this granularity and is recorded as information only.
type gwObsVariant struct {
	Name         string  `json:"name"`
	AllocsPerReq float64 `json:"allocs_per_request"`
	MsPerReq     float64 `json:"ms_per_request_informational"`
}

// benchGateway builds a gateway over one fake fast replica (an
// in-process httptest handler that drains the body and answers
// instantly) so the measured per-request cost is the gateway's own
// proxy path, not detector work.
func benchGateway(t *testing.T, tune func(*Config)) *Gateway {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		echoReplica("a")(w, r)
	}))
	t.Cleanup(ts.Close)
	cfg := Config{
		Replicas:      []ReplicaSpec{{Name: "a", Addr: strings.TrimPrefix(ts.URL, "http://")}},
		ProbeInterval: -1,
	}
	if tune != nil {
		tune(&cfg)
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

// TestBenchGatewayObsSnapshot records the gateway observability plane's
// per-request cost into BENCH_pipeline.json under a "gateway_obs" key:
// a bare gateway (no registry), the sinks-off production shape
// (registry only — the configuration the byte-identical-off contract
// covers), and the fully instrumented plane (tracing at 1.0 plus the
// SLO engine and wide events). The enforced guard is allocation parity
// for the sinks-off shape: metrics-only instrumentation is atomic
// counter/histogram math and may not allocate per request beyond the
// bare gateway plus a small fixed slack, which fails loudly if span
// assembly, flight-ring records, or SLO bookkeeping creep into the
// disabled path. The tracing+SLO delta and all wall-clock figures are
// recorded as information, never gated.
func TestBenchGatewayObsSnapshot(t *testing.T) {
	if os.Getenv("DV_BENCH_SNAPSHOT") == "" {
		t.Skip("set DV_BENCH_SNAPSHOT=1 to refresh BENCH_pipeline.json")
	}

	imgs, _ := testImages(7, 1)
	body := checkBody(t, imgs[0])

	variants := []struct {
		name string
		tune func(*Config)
	}{
		{"bare", nil},
		{"sinks_off_metrics_only", func(c *Config) { c.Registry = telemetry.New() }},
		{"traced", func(c *Config) {
			c.Registry = telemetry.New()
			c.TraceSample = 1
			c.TraceStore = 512
		}},
		{"traced_slo_events", func(c *Config) {
			reg := telemetry.New()
			c.Registry = reg
			c.Events = obs.New(obs.Config{Registry: reg})
			c.TraceSample = 1
			c.TraceStore = 512
			c.SLO.Enabled, c.SLO.Interval = true, time.Hour
		}},
	}

	results := make([]gwObsVariant, 0, len(variants))
	for _, v := range variants {
		g := benchGateway(t, v.tune)
		h := g.Handler()
		oneRequest := func() {
			req := httptest.NewRequest(http.MethodPost, "/v1/check", strings.NewReader(string(body)))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: proxied check = %d, want 200: %s", v.name, rec.Code, rec.Body.String())
			}
		}
		// Warm the upstream keep-alive connection and every lazy pool
		// before counting, so connection setup is not billed to run 1.
		for i := 0; i < 20; i++ {
			oneRequest()
		}
		allocs := testing.AllocsPerRun(200, oneRequest)
		runtime.GC()
		const timed = 300
		t0 := time.Now()
		for i := 0; i < timed; i++ {
			oneRequest()
		}
		ms := time.Since(t0).Seconds() * 1e3 / timed
		results = append(results, gwObsVariant{Name: v.name, AllocsPerReq: allocs, MsPerReq: ms})
		t.Logf("%-22s %7.1f allocs/req, %6.3f ms/req (wall clock informational)", v.name, allocs, ms)
	}

	byName := func(name string) gwObsVariant {
		for _, r := range results {
			if r.Name == name {
				return r
			}
		}
		t.Fatalf("no variant %q", name)
		return gwObsVariant{}
	}
	bare, off := byName("bare"), byName("sinks_off_metrics_only")
	full := byName("traced_slo_events")
	// The gate: registering metrics must stay allocation-free per
	// request. The slack absorbs HTTP-transport jitter (an occasional
	// keep-alive re-dial inside the averaging window), not per-request
	// observability work, which costs far more than 12 allocations.
	if off.AllocsPerReq > bare.AllocsPerReq+12 {
		t.Errorf("sinks-off gateway allocates %.1f/req vs bare %.1f/req; observability work leaked into the disabled path",
			off.AllocsPerReq, bare.AllocsPerReq)
	}
	onDelta := full.AllocsPerReq - off.AllocsPerReq
	t.Logf("tracing+SLO+events adds %.1f allocs/req over sinks-off (informational)", onDelta)

	raw, err := os.ReadFile(gwBenchSnapshotPath)
	if err != nil {
		t.Fatalf("pipeline snapshot must exist before the gateway merge (run it first, as `make snapshot` does): %v", err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	section, err := json.Marshal(struct {
		Note          string         `json:"note"`
		Variants      []gwObsVariant `json:"variants"`
		SinksOnDelta  float64        `json:"sinks_on_delta_allocs_per_request"`
		SinksOffDelta float64        `json:"sinks_off_delta_allocs_per_request"`
	}{
		"gateway observability plane cost per proxied /v1/check against an instant fake replica; " +
			"the enforced guard is sinks-off allocation parity with the bare gateway " +
			"(wall clock on the shared bench host is informational, never gated)",
		results, onDelta, off.AllocsPerReq - bare.AllocsPerReq,
	})
	if err != nil {
		t.Fatal(err)
	}
	doc["gateway_obs"] = section
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(gwBenchSnapshotPath, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Println("gateway_obs snapshot merged into", gwBenchSnapshotPath)
}
