package obs

import (
	"flag"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"deepvalidation/internal/telemetry"
	"deepvalidation/internal/trace"
)

// TestNewPlaneParts checks which parts a PlaneConfig turns on: tracing
// only at a positive rate, the ring only at a positive size, and the
// SLO engine only when enabled and given a registry — the one case in
// which the tier's objectives are asked for.
func TestNewPlaneParts(t *testing.T) {
	reg := telemetry.New()
	slo := SLOOptions{Enabled: true, Interval: time.Hour}
	cases := []struct {
		name                          string
		cfg                           PlaneConfig
		traced, recent, engine, asked bool
	}{
		{name: "all off"},
		{name: "NaN rate", cfg: PlaneConfig{TraceSample: math.NaN()}},
		{name: "negative rate", cfg: PlaneConfig{TraceSample: -1}},
		{name: "traced", cfg: PlaneConfig{TraceSample: 0.5}, traced: true},
		{name: "ring", cfg: PlaneConfig{Recent: 8}, recent: true},
		{name: "slo without registry", cfg: PlaneConfig{SLO: slo}},
		{name: "slo disabled", cfg: PlaneConfig{Registry: reg}},
		{name: "slo", cfg: PlaneConfig{Registry: reg, SLO: slo, Recent: 8}, recent: true, engine: true, asked: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			asked := 0
			tc.cfg.Objectives = func() []Objective {
				asked++
				return []Objective{{Name: "availability", Goal: 0.99, Source: func() (float64, float64) { return 0, 0 }}}
			}
			p := NewPlane(tc.cfg)
			if (p.Sampler != nil) != tc.traced || (p.Traces != nil) != tc.traced {
				t.Errorf("sampler %v, store %v, want traced %v", p.Sampler != nil, p.Traces != nil, tc.traced)
			}
			if (p.Recent != nil) != tc.recent {
				t.Errorf("ring %v, want %v", p.Recent != nil, tc.recent)
			}
			if (p.SLO != nil) != tc.engine {
				t.Errorf("engine %v, want %v", p.SLO != nil, tc.engine)
			}
			if want := map[bool]int{false: 0, true: 1}[tc.asked]; asked != want {
				t.Errorf("objectives asked %d times, want %d", asked, want)
			}
		})
	}
}

// TestNewPlaneTraceStoreDefault checks that a non-positive TraceStore
// keeps DefaultTraceStore traces and a positive one bounds the store.
func TestNewPlaneTraceStoreDefault(t *testing.T) {
	for _, tc := range []struct{ store, want int }{{0, DefaultTraceStore}, {-3, DefaultTraceStore}, {5, 5}} {
		p := NewPlane(PlaneConfig{TraceSample: 1, TraceStore: tc.store})
		for i := 0; i < DefaultTraceStore+10; i++ {
			p.Traces.Add(&trace.Trace{ID: fmt.Sprint(i)})
		}
		if got := p.Traces.Len(); got != tc.want {
			t.Errorf("TraceStore %d keeps %d traces, want %d", tc.store, got, tc.want)
		}
	}
}

// TestLookupTraceGuards walks the shared /debug/dv/trace/{id} guard
// chain: every refusal answers once, with its status, Allow header and
// body, and a held trace comes back with nothing written.
func TestLookupTraceGuards(t *testing.T) {
	const disabled = "tracing disabled (test)"
	on := NewPlane(PlaneConfig{TraceSample: 1})
	held := &trace.Trace{ID: "abc"}
	on.Traces.Add(held)
	off := NewPlane(PlaneConfig{})
	cases := []struct {
		name, method, path string
		p                  *Plane
		status             int
		allow, body        string
	}{
		{"wrong method", "POST", "/debug/dv/trace/abc", &on, 405, "GET", `{"error":"use GET"}`},
		{"wrong method when off", "PUT", "/debug/dv/trace/abc", &off, 405, "GET", `{"error":"use GET"}`},
		{"tracing off", "GET", "/debug/dv/trace/abc", &off, 404, "", `{"error":"` + disabled + `"}`},
		{"missing id", "GET", "/debug/dv/trace/", &on, 400, "", `{"error":"missing trace id: GET /debug/dv/trace/{id}"}`},
		{"unknown id", "GET", "/debug/dv/trace/zzz", &on, 404, "", `{"error":"no trace zzz (evicted, unsampled, or never seen)"}`},
		{"held", "GET", "/debug/dv/trace/abc", &on, 200, "", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := httptest.NewRecorder()
			got := tc.p.LookupTrace(w, httptest.NewRequest(tc.method, tc.path, nil), disabled)
			if (got != nil) != (tc.status == 200) || (got != nil && got != held) {
				t.Fatalf("lookup returned %v", got)
			}
			if w.Code != tc.status || w.Header().Get("Allow") != tc.allow || strings.TrimSuffix(w.Body.String(), "\n") != tc.body {
				t.Fatalf("answered %d, Allow %q, body %q; want %d, %q, %q",
					w.Code, w.Header().Get("Allow"), w.Body.String(), tc.status, tc.allow, tc.body)
			}
		})
	}
}

// flagDefaults lists fs's flags as "name=default".
func flagDefaults(fs *flag.FlagSet) []string {
	var out []string
	fs.VisitAll(func(f *flag.Flag) { out = append(out, f.Name+"="+f.DefValue) })
	sort.Strings(out)
	return out
}

// TestFlagGroupsRegister pins each group's flag names and defaults,
// which dvserve and dvgateway (server) and dvvalidate and dvbench
// (offline) expose unchanged on -h.
func TestFlagGroupsRegister(t *testing.T) {
	logFlags := []string{"log=info", "log-file=", fmt.Sprintf("log-max-bytes=%d", DefaultMaxLogBytes)}
	server := flag.NewFlagSet("server", flag.ContinueOnError)
	AddServerFlags(server)
	want := append([]string{
		"metrics-addr=", "slo=false", "slo-availability=0.999", "slo-burn=0", "slo-interval=0s",
		"slo-latency-goal=0.99", "slo-latency-target=250ms", "trace-sample=0", "trace-store=256",
	}, logFlags...)
	sort.Strings(want)
	if got := flagDefaults(server); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("server flags\n got %v\nwant %v", got, want)
	}
	offline := flag.NewFlagSet("offline", flag.ContinueOnError)
	AddOfflineFlags(offline)
	want = append([]string{"metrics-addr=", "metrics-linger=0s", "telemetry=false"}, logFlags...)
	sort.Strings(want)
	if got := flagDefaults(offline); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("offline flags\n got %v\nwant %v", got, want)
	}
}

// TestServerFlagsOpen checks that the server group builds a registry
// only when -metrics-addr or -slo asks for one, publishes dv_build_info
// with the caller's labels on it, and hands the parsed tracing and SLO
// values through.
func TestServerFlagsOpen(t *testing.T) {
	for _, tc := range []struct {
		args        []string
		reg, events bool
	}{
		{nil, false, true},
		{[]string{"-log", "off"}, false, false},
		{[]string{"-slo", "-trace-sample", "0.25", "-slo-burn", "3"}, true, true},
	} {
		fs := flag.NewFlagSet("server", flag.ContinueOnError)
		f := AddServerFlags(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		p, err := f.Open(map[string]string{"component": "test"})
		if err != nil {
			t.Fatal(err)
		}
		if (p.Registry != nil) != tc.reg {
			t.Errorf("%v: registry %v, want %v", tc.args, p.Registry != nil, tc.reg)
		}
		if (p.Events != nil) != tc.events {
			t.Errorf("%v: events %v, want %v", tc.args, p.Events != nil, tc.events)
		}
		if err := p.ServeMetrics(); err != nil { // no -metrics-addr: a no-op
			t.Fatal(err)
		}
		if tc.reg {
			found := false
			for name := range p.Registry.Snapshot().Gauges {
				found = found || strings.HasPrefix(name, "dv_build_info{") && strings.Contains(name, `component="test"`)
			}
			if !found {
				t.Errorf("%v: no dv_build_info with the component label", tc.args)
			}
			if f.TraceSample != 0.25 || !f.SLO.Enabled || f.SLO.Burn != 3 {
				t.Errorf("%v: parsed %v %+v", tc.args, f.TraceSample, f.SLO)
			}
		}
		p.Close()
	}
}

// TestOfflineFlagsOpen checks that the offline group builds a registry
// only for -telemetry or -metrics-addr, serves and stops the listener,
// and writes the summary exactly once, at Close, only with -telemetry.
func TestOfflineFlagsOpen(t *testing.T) {
	for _, tc := range []struct {
		args                   []string
		reg, listener, summary bool
	}{
		{nil, false, false, false},
		{[]string{"-telemetry"}, true, false, true},
		{[]string{"-metrics-addr", "127.0.0.1:0"}, true, true, false},
	} {
		fs := flag.NewFlagSet("offline", flag.ContinueOnError)
		f := AddOfflineFlags(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		summaries := 0
		p, err := f.Open(nil, func(io.Writer, telemetry.Snapshot) { summaries++ })
		if err != nil {
			t.Fatal(err)
		}
		if (p.Registry != nil) != tc.reg {
			t.Errorf("%v: registry %v, want %v", tc.args, p.Registry != nil, tc.reg)
		}
		if (p.stopMetrics != nil) != tc.listener {
			t.Errorf("%v: listener %v, want %v", tc.args, p.stopMetrics != nil, tc.listener)
		}
		if summaries != 0 {
			t.Errorf("%v: summary written before Close", tc.args)
		}
		p.Close()
		if want := map[bool]int{false: 0, true: 1}[tc.summary]; summaries != want {
			t.Errorf("%v: %d summaries, want %d", tc.args, summaries, want)
		}
	}
}
