package obs

import (
	"net/http"
	"strings"

	"deepvalidation/internal/telemetry"
	"deepvalidation/internal/trace"
)

// DefaultTraceStore is how many sampled traces a tier retains for
// /debug/dv/trace/{id} when PlaneConfig.TraceStore is not positive.
const DefaultTraceStore = 256

// PlaneConfig declares a serving tier's plane from its own Config.
type PlaneConfig struct {
	// TraceSample is the head-sampling rate in (0, 1]; zero, negative
	// or NaN turns tracing off (no sampler, no store).
	TraceSample float64
	// TraceStore bounds the retained sampled traces (default
	// DefaultTraceStore).
	TraceStore int
	// Recent sizes the ring of recent request outcomes: dvserve's
	// flight recorder, the gateway's SLO evidence ring. Zero or
	// negative keeps none.
	Recent int
	// Registry carries the counters the objectives difference and
	// receives the dv_slo_* series; the engine needs it.
	Registry *telemetry.Registry
	// Events receives the engine's breach events and is served on
	// /debug/dv/events.
	Events *Logger
	// SLO and Objectives declare the burn-rate engine. It runs when
	// SLO.Enabled and Registry is set; only then is Objectives called,
	// for the tier's own list.
	SLO        SLOOptions
	Objectives func() []Objective
}

// Plane is one serving tier's request-scoped observability, built once
// at start-up by NewPlane. Any field may be nil, and every per-request
// method of each is nil-safe, so a tier with all of it off pays nothing
// per request.
type Plane struct {
	// Sampler and Traces are the head sampler and the store behind
	// /debug/dv/trace/{id}; both nil when tracing is off.
	Sampler *trace.Sampler
	Traces  *trace.Store
	// Recent is the ring of recent outcomes breach events cite.
	Recent *trace.Flight
	// SLO is the burn-rate engine; its owner starts and stops it.
	SLO    *Engine
	events *Logger
}

// NewPlane builds the plane cfg declares.
func NewPlane(cfg PlaneConfig) Plane {
	p := Plane{Recent: trace.NewFlight(cfg.Recent), events: cfg.Events}
	if cfg.TraceSample > 0 {
		if cfg.TraceStore <= 0 {
			cfg.TraceStore = DefaultTraceStore
		}
		p.Sampler = trace.NewSampler(cfg.TraceSample)
		p.Traces = trace.NewStore(cfg.TraceStore)
	}
	if cfg.SLO.Enabled && cfg.Registry != nil {
		p.SLO = NewEngine(SLOConfig{
			Objectives: cfg.Objectives(),
			Windows:    cfg.SLO.Windows,
			Interval:   cfg.SLO.Interval,
			Burn:       cfg.SLO.Burn,
			Registry:   cfg.Registry,
			Events:     cfg.Events,
			Recent:     p.Recent,
		})
	}
	return p
}

// Mount registers the handlers both tiers share on mux:
// GET /debug/dv/events and GET /debug/dv/slo.
func (p *Plane) Mount(mux *http.ServeMux) {
	mux.HandleFunc("/debug/dv/events", func(w http.ResponseWriter, r *http.Request) {
		handleEvents(p.events, w, r)
	})
	mux.HandleFunc("/debug/dv/slo", func(w http.ResponseWriter, r *http.Request) {
		handleSLO(p.SLO, w, r)
	})
}

// LookupTrace is the guard chain of GET /debug/dv/trace/{id} on both
// tiers: 405 for any other method, 404 with the tier's own disabled
// text when tracing is off, 400 for a missing id and 404 for an id the
// store does not hold. It returns the trace, or nil once it has
// answered.
func (p *Plane) LookupTrace(w http.ResponseWriter, r *http.Request, disabled string) *trace.Trace {
	if !AllowMethod(w, r, http.MethodGet) {
		return nil
	}
	if p.Traces == nil {
		WriteError(w, http.StatusNotFound, disabled)
		return nil
	}
	id := strings.TrimPrefix(r.URL.Path, "/debug/dv/trace/")
	if id == "" {
		WriteError(w, http.StatusBadRequest, "missing trace id: GET /debug/dv/trace/{id}")
		return nil
	}
	tr := p.Traces.Get(id)
	if tr == nil {
		WriteError(w, http.StatusNotFound, "no trace "+id+" (evicted, unsampled, or never seen)")
	}
	return tr
}
