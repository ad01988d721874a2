package obs

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"deepvalidation/internal/telemetry"
	"deepvalidation/internal/trace"
)

// Metric names published by the SLO engine. Series carry slo (and
// window) labels.
const (
	// MetricSLOObjective is the configured goal per objective (a
	// constant gauge, so dashboards can draw the target line).
	MetricSLOObjective = "dv_slo_objective"
	// MetricSLOErrorRate is the windowed bad/total ratio.
	MetricSLOErrorRate = "dv_slo_error_rate"
	// MetricSLOBurnRate is the windowed error rate divided by the
	// objective's error budget (1-goal); 1.0 means burning the budget
	// exactly at the sustainable rate.
	MetricSLOBurnRate = "dv_slo_burn_rate"
	// MetricSLOBreach is 1 while the objective is in breach.
	MetricSLOBreach = "dv_slo_breach"
)

// DefaultBurnThreshold is the burn-rate multiple that, sustained on
// every window, flags a breach. 14.4 is the classic "2% of a 30-day
// budget in one hour" page threshold.
const DefaultBurnThreshold = 14.4

// DefaultSLOInterval is the evaluation cadence when Config.Interval is
// not positive.
const DefaultSLOInterval = 5 * time.Second

// Window is one burn-rate evaluation window.
type Window struct {
	Name string
	Dur  time.Duration
}

// DefaultWindows is the multi-window pair breaches must agree on: the
// short window catches fast burns quickly, the long window keeps a
// brief blip from paging.
var DefaultWindows = []Window{
	{Name: "5m", Dur: 5 * time.Minute},
	{Name: "1h", Dur: time.Hour},
}

// SLOOptions is the SLO configuration both serving tiers share; each
// tier embeds it and adds only the goals of its own objectives.
// Zero-value fields take the documented defaults (see Defaults).
type SLOOptions struct {
	// Enabled turns the engine on; it also needs the tier's telemetry
	// registry, which carries the counters the objectives difference.
	Enabled bool
	// Availability is the goal fraction of requests the tier answered
	// without shedding (each tier defines its own bad outcomes);
	// default 0.999.
	Availability float64
	// LatencyTarget and LatencyGoal declare the latency objective: at
	// least LatencyGoal of the counted requests finish within
	// LatencyTarget (defaults 250ms and 0.99). The target snaps up to
	// the enclosing latency-histogram bucket edge.
	LatencyTarget time.Duration
	LatencyGoal   float64
	// Windows, Interval, and Burn tune the engine; zero values mean
	// DefaultWindows, DefaultSLOInterval, and DefaultBurnThreshold.
	Windows  []Window
	Interval time.Duration
	Burn     float64
}

// Defaults fills unset shared goals in place.
func (o *SLOOptions) Defaults() {
	o.Availability = Goal(o.Availability, 0.999)
	if o.LatencyTarget <= 0 {
		o.LatencyTarget = 250 * time.Millisecond
	}
	o.LatencyGoal = Goal(o.LatencyGoal, 0.99)
}

// Goal returns g when it is a usable goal fraction in (0,1), else def.
func Goal(g, def float64) float64 {
	if g <= 0 || g >= 1 {
		return def
	}
	return g
}

// Source samples an objective's cumulative bad and total event counts.
// Both must be monotone non-decreasing; the engine differences them
// over windows.
type Source func() (bad, total float64)

// Objective is one declarative service-level objective.
type Objective struct {
	// Name labels every exported series ("availability", ...).
	Name string
	// Description is surfaced on /debug/dv/slo.
	Description string
	// Goal is the target good-event fraction in (0,1), e.g. 0.999.
	Goal float64
	// Source supplies the cumulative counts.
	Source Source
	// Outcomes, Endpoint, and SlowerThan declare which flight entries
	// are evidence for a breach, cited by trace ID in the breach event
	// so the operator can jump straight to /debug/dv/trace/{id}. Nil
	// Outcomes matches any outcome, an empty Endpoint any endpoint, and
	// a positive SlowerThan only entries with LatencySec above it.
	Outcomes   []string
	Endpoint   string
	SlowerThan float64
}

// evidence reports whether the flight entry is evidence for o.
func (o *Objective) evidence(e trace.Entry) bool {
	if o.Endpoint != "" && e.Endpoint != o.Endpoint {
		return false
	}
	if o.SlowerThan > 0 && e.LatencySec <= o.SlowerThan {
		return false
	}
	return o.Outcomes == nil || slices.Contains(o.Outcomes, e.Outcome)
}

// SLOConfig configures an Engine.
type SLOConfig struct {
	Objectives []Objective
	// Windows defaults to DefaultWindows.
	Windows []Window
	// Interval is the sampling cadence (<=0: DefaultSLOInterval).
	Interval time.Duration
	// Burn is the breach threshold (<=0: DefaultBurnThreshold). An
	// objective breaches when every window's burn rate is ≥ Burn.
	Burn float64
	// Registry receives the dv_slo_* series.
	Registry *telemetry.Registry
	// Events receives slo_breach events on breach transitions.
	Events *Logger
	// Recent, when set, is the ring of recent request outcomes breach
	// events cite evidence from (see Objective.Outcomes).
	Recent *trace.Flight
	// Clock overrides time.Now for tests.
	Clock func() time.Time
}

// sample is one cumulative reading.
type sample struct {
	t   time.Time
	bad float64
	tot float64
}

// WindowStatus is one window's evaluation inside ObjectiveStatus.
type WindowStatus struct {
	Window    string  `json:"window"`
	Bad       float64 `json:"bad"`
	Total     float64 `json:"total"`
	ErrorRate float64 `json:"error_rate"`
	BurnRate  float64 `json:"burn_rate"`
}

// ObjectiveStatus is one objective's current evaluation.
type ObjectiveStatus struct {
	Name        string         `json:"name"`
	Description string         `json:"description,omitempty"`
	Goal        float64        `json:"goal"`
	Breach      bool           `json:"breach"`
	Windows     []WindowStatus `json:"windows"`
}

// Status summarizes the engine for /readyz and /debug/dv/slo.
type Status struct {
	Enabled       bool              `json:"enabled"`
	BurnThreshold float64           `json:"burn_threshold,omitempty"`
	Breaching     bool              `json:"breaching"`
	Objectives    []ObjectiveStatus `json:"objectives,omitempty"`
}

// Line renders the one-line human summary used on /readyz: "slo:
// disabled", "slo: ok (3 objectives)", or "slo: BREACH availability
// (burn 25.0x)".
func (s Status) Line() string {
	if !s.Enabled {
		return "slo: disabled"
	}
	var breaching []string
	worst := 0.0
	for _, o := range s.Objectives {
		if !o.Breach {
			continue
		}
		breaching = append(breaching, o.Name)
		for _, w := range o.Windows {
			if w.BurnRate > worst {
				worst = w.BurnRate
			}
		}
	}
	if len(breaching) == 0 {
		return fmt.Sprintf("slo: ok (%d objectives)", len(s.Objectives))
	}
	sort.Strings(breaching)
	return fmt.Sprintf("slo: BREACH %v (max burn %.1fx)", breaching, worst)
}

// Engine evaluates objectives as multi-window burn rates. Nil-safe.
type Engine struct {
	objectives []Objective
	windows    []Window
	interval   time.Duration
	burn       float64
	reg        *telemetry.Registry
	events     *Logger
	recent     *trace.Flight
	clock      func() time.Time

	mu       sync.Mutex
	history  [][]sample // per objective, oldest first
	breached []bool
	status   Status
	stopped  chan struct{}
	done     chan struct{}

	// resolved gauge handles, per objective/window, so Tick allocates
	// nothing after warm-up.
	gObjective []*telemetry.Gauge
	gBreach    []*telemetry.Gauge
	gErr       [][]*telemetry.Gauge
	gBurn      [][]*telemetry.Gauge
}

// NewEngine builds an engine. Returns nil when there are no
// objectives, so a disabled SLO config costs nothing.
func NewEngine(cfg SLOConfig) *Engine {
	if len(cfg.Objectives) == 0 {
		return nil
	}
	e := &Engine{
		objectives: cfg.Objectives,
		windows:    cfg.Windows,
		interval:   cfg.Interval,
		burn:       cfg.Burn,
		reg:        cfg.Registry,
		events:     cfg.Events,
		recent:     cfg.Recent,
		clock:      cfg.Clock,
	}
	if len(e.windows) == 0 {
		e.windows = DefaultWindows
	}
	if e.interval <= 0 {
		e.interval = DefaultSLOInterval
	}
	if e.burn <= 0 {
		e.burn = DefaultBurnThreshold
	}
	if e.clock == nil {
		e.clock = time.Now
	}
	e.history = make([][]sample, len(e.objectives))
	e.breached = make([]bool, len(e.objectives))
	e.gObjective = make([]*telemetry.Gauge, len(e.objectives))
	e.gBreach = make([]*telemetry.Gauge, len(e.objectives))
	e.gErr = make([][]*telemetry.Gauge, len(e.objectives))
	e.gBurn = make([][]*telemetry.Gauge, len(e.objectives))
	for i, o := range e.objectives {
		if e.reg != nil {
			e.gObjective[i] = e.reg.Gauge(telemetry.Label(MetricSLOObjective, "slo", o.Name))
			e.gObjective[i].Set(o.Goal)
			e.gBreach[i] = e.reg.Gauge(telemetry.Label(MetricSLOBreach, "slo", o.Name))
			e.gErr[i] = make([]*telemetry.Gauge, len(e.windows))
			e.gBurn[i] = make([]*telemetry.Gauge, len(e.windows))
			for j, w := range e.windows {
				e.gErr[i][j] = e.reg.Gauge(telemetry.Label(MetricSLOErrorRate, "slo", o.Name, "window", w.Name))
				e.gBurn[i][j] = e.reg.Gauge(telemetry.Label(MetricSLOBurnRate, "slo", o.Name, "window", w.Name))
			}
		}
	}
	e.status = Status{Enabled: true, BurnThreshold: e.burn}
	return e
}

// maxSamples bounds per-objective history to the longest window plus
// one interval of slack.
func (e *Engine) maxSamples() int {
	longest := e.windows[0].Dur
	for _, w := range e.windows {
		if w.Dur > longest {
			longest = w.Dur
		}
	}
	n := int(longest/e.interval) + 2
	if n < 2 {
		n = 2
	}
	return n
}

// Tick samples every objective once and re-evaluates burn rates. It is
// the deterministic core Start loops over; tests and smoke drivers may
// call it directly (safe concurrently with a running loop).
func (e *Engine) Tick() {
	if e == nil {
		return
	}
	now := e.clock()
	type breachEvent struct {
		objective Objective
		burns     map[string]float64
		raise     bool
	}
	var transitions []breachEvent

	e.mu.Lock()
	cap := e.maxSamples()
	st := Status{Enabled: true, BurnThreshold: e.burn}
	anyBreach := false
	for i, o := range e.objectives {
		bad, tot := o.Source()
		h := append(e.history[i], sample{t: now, bad: bad, tot: tot})
		if len(h) > cap {
			h = h[len(h)-cap:]
		}
		e.history[i] = h

		os := ObjectiveStatus{Name: o.Name, Description: o.Description, Goal: o.Goal}
		budget := 1 - o.Goal
		breach := len(h) > 1
		burns := make(map[string]float64, len(e.windows))
		for j, w := range e.windows {
			// Oldest sample still inside the window; a fresh process
			// falls back to its oldest sample, so short uptimes still
			// evaluate (the 1h window sees "since start").
			base := h[0]
			for _, s := range h {
				if now.Sub(s.t) <= w.Dur {
					base = s
					break
				}
			}
			dBad := bad - base.bad
			dTot := tot - base.tot
			ws := WindowStatus{Window: w.Name, Bad: dBad, Total: dTot}
			if dTot > 0 {
				ws.ErrorRate = dBad / dTot
				if budget > 0 {
					ws.BurnRate = ws.ErrorRate / budget
				}
			}
			burns[w.Name] = ws.BurnRate
			if ws.BurnRate < e.burn {
				breach = false
			}
			os.Windows = append(os.Windows, ws)
			if e.gErr[i] != nil {
				e.gErr[i][j].Set(ws.ErrorRate)
				e.gBurn[i][j].Set(ws.BurnRate)
			}
		}
		os.Breach = breach
		if breach {
			anyBreach = true
		}
		if e.gBreach[i] != nil {
			v := 0.0
			if breach {
				v = 1
			}
			e.gBreach[i].Set(v)
		}
		if breach != e.breached[i] {
			e.breached[i] = breach
			transitions = append(transitions, breachEvent{objective: o, burns: burns, raise: breach})
		}
		st.Objectives = append(st.Objectives, os)
	}
	st.Breaching = anyBreach
	e.status = st
	e.mu.Unlock()

	// Emit transition events outside the lock: citing evidence takes
	// the flight recorder's lock.
	for _, tr := range transitions {
		ev := Event{
			Type:  TypeSLOBreach,
			Level: LevelError,
			SLO:   tr.objective.Name,
			Burn:  tr.burns,
			Msg:   fmt.Sprintf("SLO %s burn-rate breach (threshold %.1fx)", tr.objective.Name, e.burn),
		}
		if !tr.raise {
			ev.Level = LevelInfo
			ev.Msg = fmt.Sprintf("SLO %s recovered", tr.objective.Name)
		}
		if tr.raise {
			ev.TraceIDs = e.traceIDs(&tr.objective, 8)
		}
		e.events.Emit(ev)
	}
}

// traceIDs returns up to n trace IDs of the newest flight entries that
// are evidence for o, skipping entries without an ID.
func (e *Engine) traceIDs(o *Objective, n int) []string {
	var ids []string
	for _, en := range e.recent.Snapshot(trace.Filter{}) {
		if en.TraceID == "" || !o.evidence(en) {
			continue
		}
		ids = append(ids, en.TraceID)
		if len(ids) >= n {
			break
		}
	}
	return ids
}

// Status returns the last evaluation. Nil-safe: a nil engine reports
// Enabled=false.
func (e *Engine) Status() Status {
	if e == nil {
		return Status{}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.status
}

// Start launches the evaluation loop (one immediate tick, then one per
// interval). Stop with Stop. Nil-safe and idempotent.
func (e *Engine) Start() {
	if e == nil {
		return
	}
	e.Tick()
	e.mu.Lock()
	if e.stopped != nil {
		e.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	e.stopped, e.done = stop, done
	e.mu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(e.interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				e.Tick()
			}
		}
	}()
}

// Stop halts the evaluation loop and waits for it. Nil-safe,
// idempotent.
func (e *Engine) Stop() {
	if e == nil {
		return
	}
	e.mu.Lock()
	stop, done := e.stopped, e.done
	e.stopped, e.done = nil, nil
	e.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}
