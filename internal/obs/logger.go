package obs

import (
	"encoding/json"
	"sync"
	"sync/atomic"
	"time"

	"deepvalidation/internal/telemetry"
	"deepvalidation/internal/trace"
)

// Metric names published by the logger itself, so the event pipeline
// is observable through the same registry it observes.
const (
	// MetricEventsEmitted counts events accepted into the ring/sinks,
	// labeled by event type.
	MetricEventsEmitted = "dv_events_emitted_total"
	// MetricEventsDropped counts events rejected by per-type rate
	// caps, labeled by event type.
	MetricEventsDropped = "dv_events_dropped_total"
	// MetricEventSinkErrors counts sink write failures.
	MetricEventSinkErrors = "dv_events_sink_errors_total"
)

// DefaultRingSize is the bounded event ring capacity when Config.Ring
// is zero.
const DefaultRingSize = 512

// DefaultRequestRate is the default rate cap, in events per second,
// for TypeRequest events — the only type the serving hot path emits
// per request. Every other type is unlimited unless Config.Rates caps
// it. The burst is 2x the rate.
const DefaultRequestRate = 100.0

// Config configures a Logger. The zero value is usable: info level,
// default ring, default request-rate cap, no sinks.
type Config struct {
	// MinLevel drops events below this severity before any other work.
	MinLevel Level
	// Ring is the in-memory ring capacity; 0 means DefaultRingSize,
	// negative disables the ring.
	Ring int
	// Rates maps event type -> events/second cap (burst 2x). A zero or
	// negative value means unlimited. Types absent from the map use
	// DefaultRequestRate for TypeRequest and unlimited otherwise.
	Rates map[string]float64
	// Sinks receive each emitted event as one NDJSON line. Sink errors
	// are counted, never propagated to the emitter.
	Sinks []Sink
	// Registry, when set, receives the dv_events_* self-metrics.
	Registry *telemetry.Registry
}

// Logger emits wide events. All methods are safe for concurrent use
// and are no-ops on a nil receiver.
type Logger struct {
	min   Level
	seq   atomic.Uint64
	ring  *eventRing
	sinks []Sink
	reg   *telemetry.Registry

	// now is the clock, swappable in tests.
	now func() time.Time

	mu      sync.Mutex
	buckets map[string]*tokenBucket
	rates   map[string]float64
	emitted map[string]*telemetry.Counter
	dropped map[string]*telemetry.Counter
	sinkErr *telemetry.Counter
	drops   map[string]*atomic.Int64
}

// tokenBucket is a per-event-type rate limiter. rate<=0 disables it.
type tokenBucket struct {
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

func (b *tokenBucket) allow(now time.Time) bool {
	if b.rate <= 0 {
		return true
	}
	if !b.last.IsZero() {
		b.tokens += float64(now.Sub(b.last).Seconds() * b.rate)
	}
	b.last = now
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// New builds a Logger from cfg.
func New(cfg Config) *Logger {
	l := &Logger{
		min:     cfg.MinLevel,
		sinks:   cfg.Sinks,
		reg:     cfg.Registry,
		now:     time.Now,
		buckets: make(map[string]*tokenBucket),
		rates:   cfg.Rates,
		emitted: make(map[string]*telemetry.Counter),
		dropped: make(map[string]*telemetry.Counter),
		drops:   make(map[string]*atomic.Int64),
	}
	size := cfg.Ring
	if size == 0 {
		size = DefaultRingSize
	}
	if size > 0 {
		l.ring = newEventRing(size)
	}
	if l.reg != nil {
		l.sinkErr = l.reg.Counter(MetricEventSinkErrors)
	}
	return l
}

// Enabled reports whether an event at the given level would pass the
// logger's level gate. Callers assembling expensive events can check
// it first; Emit re-checks regardless.
func (l *Logger) Enabled(level Level) bool {
	return l != nil && level.rank() >= l.min.rank()
}

// rateFor resolves the configured cap for an event type.
func (l *Logger) rateFor(typ string) float64 {
	if r, ok := l.rates[typ]; ok {
		return r
	}
	if typ == TypeRequest {
		return DefaultRequestRate
	}
	return 0
}

// Emit records one event: level gate, per-type rate cap, then sequence
// stamping, the ring, and every sink. Nil-safe.
func (l *Logger) Emit(e Event) {
	if l == nil || e.Level.rank() < l.min.rank() {
		return
	}
	now := l.now()
	l.mu.Lock()
	b := l.buckets[e.Type]
	if b == nil {
		rate := l.rateFor(e.Type)
		// A fresh bucket starts full so the first burst is admitted.
		b = &tokenBucket{rate: rate, burst: 2 * rate, tokens: 2 * rate}
		l.buckets[e.Type] = b
	}
	ok := b.allow(now)
	if !ok {
		d := l.drops[e.Type]
		if d == nil {
			d = new(atomic.Int64)
			l.drops[e.Type] = d
		}
		d.Add(1)
		var c *telemetry.Counter
		if l.reg != nil {
			c = l.dropped[e.Type]
			if c == nil {
				c = l.reg.Counter(telemetry.Label(MetricEventsDropped, "type", e.Type))
				l.dropped[e.Type] = c
			}
		}
		l.mu.Unlock()
		c.Inc()
		return
	}
	var c *telemetry.Counter
	if l.reg != nil {
		c = l.emitted[e.Type]
		if c == nil {
			c = l.reg.Counter(telemetry.Label(MetricEventsEmitted, "type", e.Type))
			l.emitted[e.Type] = c
		}
	}
	l.mu.Unlock()

	e.Seq = l.seq.Add(1)
	e.TimeNs = now.UnixNano()
	c.Inc()
	l.ring.add(e)
	if len(l.sinks) > 0 {
		line, err := json.Marshal(e)
		if err != nil {
			l.sinkErr.Inc()
			return
		}
		for _, s := range l.sinks {
			if err := s.WriteEvent(line); err != nil {
				l.sinkErr.Inc()
			}
		}
	}
}

// Dropped returns how many events of the given type the rate cap has
// rejected so far.
func (l *Logger) Dropped(typ string) int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	d := l.drops[typ]
	l.mu.Unlock()
	if d == nil {
		return 0
	}
	return d.Load()
}

// Close flushes and closes every sink. The logger remains usable; sink
// writes after Close count as sink errors.
func (l *Logger) Close() error {
	if l == nil {
		return nil
	}
	var first error
	for _, s := range l.sinks {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Filter selects events from the ring. It extends the flight
// recorder's triage filters (valid/class/outcome/limit) with the
// event-native type and min-level axes. Zero value matches everything.
type Filter struct {
	// Type matches Event.Type exactly when non-empty.
	Type string
	// MinLevel keeps events at or above this severity.
	MinLevel Level
	// Valid filters verdict-bearing events on Event.Valid; events with
	// no verdict (shed, reload, lifecycle...) never match.
	Valid *bool
	// Class filters verdict-bearing events on the predicted class.
	Class *int
	// Outcome matches Event.Outcome exactly when non-empty.
	Outcome string
	// Limit caps the number of returned events; 0 means no cap.
	Limit int
}

func (f Filter) match(e *Event) bool {
	if f.Type != "" && e.Type != f.Type {
		return false
	}
	if e.Level.rank() < f.MinLevel.rank() {
		return false
	}
	if f.Outcome != "" && e.Outcome != f.Outcome {
		return false
	}
	if f.Valid != nil && (!e.verdictBearing() || e.Valid != *f.Valid) {
		return false
	}
	if f.Class != nil && (!e.verdictBearing() || e.Class != *f.Class) {
		return false
	}
	return true
}

// Snapshot returns ring events matching f, newest first. Nil-safe.
func (l *Logger) Snapshot(f Filter) []Event {
	if l == nil || l.ring == nil {
		return nil
	}
	return l.ring.snapshot(f)
}

// eventRing is a fixed-capacity overwrite-oldest ring of events,
// mirroring the flight recorder's shape: each slot owns the storage of
// its event's Layers and PerLayer and reuses it when it is overwritten,
// and snapshots hand out copies.
type eventRing struct {
	mu   sync.Mutex
	buf  []Event
	next uint64
}

func newEventRing(size int) *eventRing {
	return &eventRing{buf: make([]Event, size)}
}

func (r *eventRing) add(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	slot := &r.buf[r.next%uint64(len(r.buf))]
	e.Layers = append(slot.Layers[:0], e.Layers...)
	e.PerLayer = append(slot.PerLayer[:0], e.PerLayer...)
	*slot = e
	r.next++
	r.mu.Unlock()
}

func (r *eventRing) snapshot(f Filter) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	span := uint64(len(r.buf))
	if n < span {
		span = n
	}
	out := make([]Event, 0, span)
	for i := uint64(0); i < span; i++ {
		e := &r.buf[(n-1-i)%uint64(len(r.buf))]
		if !f.match(e) {
			continue
		}
		out = append(out, *e)
		last := &out[len(out)-1]
		last.Layers, last.PerLayer = trace.Own(e.Layers), trace.Own(e.PerLayer)
		if f.Limit > 0 && len(out) >= f.Limit {
			break
		}
	}
	return out
}
