package obs

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"deepvalidation/internal/telemetry"
	"deepvalidation/internal/trace"
)

// sloClock is a manually advanced clock for deterministic ticks.
type sloClock struct{ t time.Time }

func (c *sloClock) now() time.Time          { return c.t }
func (c *sloClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// cumulativeSource replays scripted (bad, total) readings, holding the
// last one forever.
type cumulativeSource struct {
	readings [][2]float64
	i        int
}

func (s *cumulativeSource) read() (float64, float64) {
	r := s.readings[s.i]
	if s.i < len(s.readings)-1 {
		s.i++
	}
	return r[0], r[1]
}

func TestNilEngine(t *testing.T) {
	var e *Engine
	e.Tick()
	e.Start()
	e.Stop()
	st := e.Status()
	if st.Enabled {
		t.Fatal("nil engine reports enabled")
	}
	if got := st.Line(); got != "slo: disabled" {
		t.Fatalf("nil engine line = %q", got)
	}
	if NewEngine(SLOConfig{}) != nil {
		t.Fatal("engine with no objectives is not nil")
	}
}

func TestBurnRateMath(t *testing.T) {
	clk := &sloClock{t: time.Unix(1700000000, 0)}
	// 100 requests per tick, 5 bad each tick: error rate 5%, goal 99.9%
	// → burn 50x.
	src := &cumulativeSource{readings: [][2]float64{
		{0, 0}, {5, 100}, {10, 200}, {15, 300},
	}}
	eng := NewEngine(SLOConfig{
		Objectives: []Objective{{Name: "availability", Goal: 0.999, Source: src.read}},
		Interval:   time.Second,
		Burn:       14.4,
		Clock:      clk.now,
	})
	eng.Tick() // baseline sample, no breach possible
	if eng.Status().Breaching {
		t.Fatal("breach on first sample")
	}
	for i := 0; i < 3; i++ {
		clk.advance(time.Second)
		eng.Tick()
	}
	st := eng.Status()
	if !st.Breaching {
		t.Fatal("sustained 50x burn did not breach")
	}
	o := st.Objectives[0]
	if !o.Breach {
		t.Fatal("objective not marked breached")
	}
	for _, w := range o.Windows {
		if want := 0.05 / 0.001; !approx(w.BurnRate, want, 1e-9) {
			t.Fatalf("window %s burn = %v, want %v", w.Window, w.BurnRate, want)
		}
		if !approx(w.ErrorRate, 0.05, 1e-12) {
			t.Fatalf("window %s error rate = %v, want 0.05", w.Window, w.ErrorRate)
		}
	}
	line := st.Line()
	if !strings.Contains(line, "BREACH") || !strings.Contains(line, "availability") {
		t.Fatalf("breach line = %q", line)
	}
}

func TestMultiWindowVeto(t *testing.T) {
	// A short error burst drives the 5m window over threshold while the
	// 1h window (diluted by an hour of clean traffic) stays under: no
	// breach — that is the point of multi-window burn rates.
	clk := &sloClock{t: time.Unix(1700000000, 0)}
	bad, tot := 0.0, 0.0
	eng := NewEngine(SLOConfig{
		Objectives: []Objective{{Name: "availability", Goal: 0.99, Source: func() (float64, float64) { return bad, tot }}},
		Interval:   time.Minute,
		Burn:       10,
		Clock:      clk.now,
	})
	// One hour of clean traffic at 100 req/min.
	for i := 0; i < 60; i++ {
		eng.Tick()
		clk.advance(time.Minute)
		tot += 100
	}
	// Then two minutes of 50% errors.
	for i := 0; i < 2; i++ {
		eng.Tick()
		clk.advance(time.Minute)
		tot += 100
		bad += 50
	}
	eng.Tick()
	st := eng.Status()
	var w5, w1h WindowStatus
	for _, w := range st.Objectives[0].Windows {
		switch w.Window {
		case "5m":
			w5 = w
		case "1h":
			w1h = w
		}
	}
	if w5.BurnRate < 10 {
		t.Fatalf("5m burn = %v, want over threshold", w5.BurnRate)
	}
	if w1h.BurnRate >= 10 {
		t.Fatalf("1h burn = %v, want under threshold", w1h.BurnRate)
	}
	if st.Breaching {
		t.Fatal("short burst breached despite the long-window veto")
	}
}

func TestBreachEventCrossLinksTraces(t *testing.T) {
	clk := &sloClock{t: time.Unix(1700000000, 0)}
	log := New(Config{})
	// The latency objective counts /v1/check only, so of these entries
	// only the slow check is evidence: the slow batch item is another
	// endpoint, the fast check is under target, and the slowest check
	// carries no trace ID.
	recent := trace.NewFlight(16)
	recent.Record(trace.Entry{TraceID: "slow-check", Endpoint: "check", Outcome: trace.OutcomeOK, LatencySec: 0.5})
	recent.Record(trace.Entry{TraceID: "batchitem.0", Endpoint: "batch", Outcome: trace.OutcomeOK, LatencySec: 1.0})
	recent.Record(trace.Entry{TraceID: "fast-check", Endpoint: "check", Outcome: trace.OutcomeOK, LatencySec: 0.01})
	recent.Record(trace.Entry{Endpoint: "check", Outcome: trace.OutcomeDeadline, LatencySec: 2.0})
	bad, tot := 0.0, 0.0
	eng := NewEngine(SLOConfig{
		Objectives: []Objective{{
			Name: "latency", Goal: 0.999, Source: func() (float64, float64) { return bad, tot },
			Endpoint: "check", SlowerThan: 0.25,
		}},
		Interval: time.Second,
		Burn:     10,
		Events:   log,
		Recent:   recent,
		Clock:    clk.now,
	})
	eng.Tick()
	for i := 0; i < 2; i++ {
		clk.advance(time.Second)
		bad += 50
		tot += 100
		eng.Tick()
	}
	evs := log.Snapshot(Filter{Type: TypeSLOBreach})
	if len(evs) != 1 {
		t.Fatalf("breach transitions emitted %d events, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Level != LevelError || ev.SLO != "latency" {
		t.Fatalf("breach event = %+v", ev)
	}
	if len(ev.TraceIDs) != 1 || ev.TraceIDs[0] != "slow-check" {
		t.Fatalf("breach event trace links = %v, want [slow-check]", ev.TraceIDs)
	}
	if ev.Burn["5m"] < 10 {
		t.Fatalf("breach event burn = %v", ev.Burn)
	}

	// Recovery: traffic goes clean, windows drain, a single info event.
	for i := 0; i < 400; i++ {
		clk.advance(time.Second)
		tot += 100
		eng.Tick()
	}
	evs = log.Snapshot(Filter{Type: TypeSLOBreach})
	if len(evs) != 2 {
		t.Fatalf("after recovery, %d breach-transition events, want 2", len(evs))
	}
	if evs[0].Level != LevelInfo || !strings.Contains(evs[0].Msg, "recovered") {
		t.Fatalf("recovery event = %+v", evs[0])
	}
	if eng.Status().Breaching {
		t.Fatal("still breaching after recovery")
	}
}

// TestBreachEvidenceSelection pins the evidence rule: outcome and
// endpoint filters, newest first, empty IDs skipped, capped at n, and
// no citations without a flight ring.
func TestBreachEvidenceSelection(t *testing.T) {
	recent := trace.NewFlight(32)
	for i := 0; i < 12; i++ {
		recent.Record(trace.Entry{TraceID: fmt.Sprintf("shed-%d", i), Endpoint: "batch", Outcome: trace.OutcomeShed})
		recent.Record(trace.Entry{TraceID: fmt.Sprintf("ok-%d", i), Endpoint: "check", Outcome: trace.OutcomeOK})
	}
	recent.Record(trace.Entry{TraceID: "deadline-0", Endpoint: "check", Outcome: trace.OutcomeDeadline})
	recent.Record(trace.Entry{Endpoint: "check", Outcome: trace.OutcomeShed})
	cases := []struct {
		name string
		o    Objective
		n    int
		want []string
	}{
		{"outcomes newest first", Objective{Outcomes: []string{trace.OutcomeShed, trace.OutcomeDeadline}}, 3,
			[]string{"deadline-0", "shed-11", "shed-10"}},
		{"capped at n", Objective{Outcomes: []string{trace.OutcomeShed}}, 8,
			[]string{"shed-11", "shed-10", "shed-9", "shed-8", "shed-7", "shed-6", "shed-5", "shed-4"}},
		{"endpoint, any outcome", Objective{Endpoint: "check"}, 2, []string{"deadline-0", "ok-11"}},
		{"no match", Objective{Outcomes: []string{trace.OutcomeQuarantined}}, 8, nil},
	}
	for _, tc := range cases {
		e := &Engine{recent: recent}
		if got := e.traceIDs(&tc.o, tc.n); fmt.Sprint(got) != fmt.Sprint(tc.want) || (got == nil) != (tc.want == nil) {
			t.Errorf("%s: trace IDs = %v, want %v", tc.name, got, tc.want)
		}
	}
	if got := (&Engine{}).traceIDs(&Objective{}, 8); got != nil {
		t.Errorf("no flight ring cited %v", got)
	}
}

func TestSLOMetricsExported(t *testing.T) {
	reg := telemetry.New()
	clk := &sloClock{t: time.Unix(1700000000, 0)}
	bad, tot := 0.0, 0.0
	eng := NewEngine(SLOConfig{
		Objectives: []Objective{{Name: "latency", Goal: 0.99, Source: func() (float64, float64) { return bad, tot }}},
		Interval:   time.Second,
		Registry:   reg,
		Clock:      clk.now,
	})
	eng.Tick()
	clk.advance(time.Second)
	bad, tot = 2, 100
	eng.Tick()
	snap := reg.Snapshot()
	if g := snap.Gauges[telemetry.Label(MetricSLOObjective, "slo", "latency")]; g != 0.99 {
		t.Fatalf("objective gauge = %v", g)
	}
	if g := snap.Gauges[telemetry.Label(MetricSLOErrorRate, "slo", "latency", "window", "5m")]; !approx(g, 0.02, 1e-12) {
		t.Fatalf("error-rate gauge = %v", g)
	}
	if g := snap.Gauges[telemetry.Label(MetricSLOBurnRate, "slo", "latency", "window", "1h")]; !approx(g, 2.0, 1e-9) {
		t.Fatalf("burn gauge = %v", g)
	}
	if g := snap.Gauges[telemetry.Label(MetricSLOBreach, "slo", "latency")]; g != 0 {
		t.Fatalf("breach gauge = %v", g)
	}
}

func TestHistoryBounded(t *testing.T) {
	clk := &sloClock{t: time.Unix(1700000000, 0)}
	n := 0.0
	eng := NewEngine(SLOConfig{
		Objectives: []Objective{{Name: "availability", Goal: 0.999, Source: func() (float64, float64) { n++; return 0, n }}},
		Interval:   time.Second,
		Clock:      clk.now,
	})
	for i := 0; i < 5000; i++ {
		eng.Tick()
		clk.advance(time.Second)
	}
	eng.mu.Lock()
	got := len(eng.history[0])
	eng.mu.Unlock()
	if max := eng.maxSamples(); got > max {
		t.Fatalf("history holds %d samples, cap %d", got, max)
	}
}

func TestEngineStartStop(t *testing.T) {
	eng := NewEngine(SLOConfig{
		Objectives: []Objective{{Name: "availability", Goal: 0.999, Source: func() (float64, float64) { return 0, 1 }}},
		Interval:   10 * time.Millisecond,
	})
	eng.Start()
	eng.Start() // idempotent
	time.Sleep(30 * time.Millisecond)
	eng.Stop()
	eng.Stop() // idempotent
	if !eng.Status().Enabled {
		t.Fatal("status lost after stop")
	}
}

func approx(got, want, tol float64) bool {
	d := got - want
	if d < 0 {
		d = -d
	}
	return d <= tol
}
