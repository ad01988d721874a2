// Package obs is the observability layer: wide-event structured
// logging, Go-runtime self-observation, and SLO burn-rate evaluation.
// Like the telemetry package it depends only on the standard library
// and follows the same nil-safe discipline — every method on a nil
// *Logger, nil *Runtime, or nil *Engine is a no-op, so "observability
// disabled" is spelled `nil` and costs one pointer compare on the hot
// path.
//
// # Wide events
//
// Instead of many small log lines per request, the system emits one
// wide Event per decision (verdict, shed, reload, drift alarm, hunt
// escape, SLO breach) carrying everything an operator needs to triage
// it: trace ID, class, joint and per-layer discrepancies, outcome,
// queue depth, latency. Events are leveled, rate-capped per type so a
// melting-down hot path cannot melt the logger too, kept in a bounded
// in-memory ring served on GET /debug/dv/events, and optionally
// mirrored to NDJSON sinks (stderr, or a file with atomic size-based
// rotation).
package obs

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Level is an event severity. The zero value is LevelInfo so a bare
// Event{} is an info event, matching what callers mean by default.
type Level int8

const (
	LevelInfo Level = iota
	LevelDebug
	LevelWarn
	LevelError
)

// rank orders levels by severity for min-level filtering; the unusual
// constant order above (zero value = info) is flattened here.
func (l Level) rank() int {
	switch l {
	case LevelDebug:
		return 0
	case LevelInfo:
		return 1
	case LevelWarn:
		return 2
	case LevelError:
		return 3
	}
	return 1
}

func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	}
	return "info"
}

// ParseLevel converts a flag value ("debug", "info", "warn", "error")
// into a Level.
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return LevelDebug, nil
	case "info", "":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	}
	return LevelInfo, fmt.Errorf("obs: unknown level %q (want debug, info, warn or error)", s)
}

// MarshalJSON renders the level as its string name.
func (l Level) MarshalJSON() ([]byte, error) {
	return json.Marshal(l.String())
}

// UnmarshalJSON accepts the string names emitted by MarshalJSON.
func (l *Level) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	v, err := ParseLevel(s)
	if err != nil {
		return err
	}
	*l = v
	return nil
}

// Event types emitted by this repository. The type is the rate-cap
// key: each type has its own token bucket so a verdict flood cannot
// starve reload or breach events.
const (
	// TypeRequest is one served request decision (ok, quarantined,
	// shed, deadline, error) — the wide event of the serving hot path.
	TypeRequest = "request"
	// TypeQuarantine is emitted by the Detector when a verdict is
	// quarantined for non-finite numerics; it fires on the quarantine
	// branch only, so the valid-verdict path never sees it.
	TypeQuarantine = "quarantine"
	// TypeReload is an artifact hot-reload attempt, success or failure.
	TypeReload = "reload"
	// TypeDriftAlarm marks a drift-watch alarm transition (raise/clear).
	TypeDriftAlarm = "drift_alarm"
	// TypeHuntEscape is one detector escape saved by the dvhunt miner.
	TypeHuntEscape = "hunt_escape"
	// TypeSLOBreach marks an SLO burn-rate breach transition
	// (raise/clear); raise events cross-link offending trace IDs.
	TypeSLOBreach = "slo_breach"
	// TypeLifecycle covers process start/stop/drain notices.
	TypeLifecycle = "lifecycle"
	// TypeReplicaHealth marks a gateway health-state transition for one
	// replica (healthy, degraded, drained, reprobing).
	TypeReplicaHealth = "replica_health"
	// TypeRollout covers gateway staged-rollout progress: per-replica
	// switch, convergence, halt, and rollback notices.
	TypeRollout = "rollout"
)

// Event is one wide observability event. Fields are flat and typed so
// the NDJSON stream is directly queryable (jq, duckdb, grep) without
// schema gymnastics; unused fields marshal away via omitempty. The ring
// copies Layers and PerLayer, so an emitter may reuse its rows once
// Emit returns; the other slices and maps are shared, not copied —
// treat them as immutable once emitted.
type Event struct {
	// Seq is a process-local monotone sequence number, assigned at
	// Emit. Gaps reveal rate-capped drops.
	Seq uint64 `json:"seq"`
	// TimeNs is the emit wall-clock time, UnixNano.
	TimeNs int64  `json:"time_ns"`
	Type   string `json:"type"`
	Level  Level  `json:"level"`
	// Msg is a short human-readable summary; the structured fields are
	// the source of truth.
	Msg string `json:"msg,omitempty"`

	// TraceID correlates the event with /debug/dv/trace/{id} and the
	// flight recorder.
	TraceID  string `json:"trace_id,omitempty"`
	Endpoint string `json:"endpoint,omitempty"`
	// Outcome is the request outcome (trace.Outcome* values) for
	// request-bearing events.
	Outcome string `json:"outcome,omitempty"`

	// Verdict payload (request/quarantine events): predicted class,
	// validity, joint discrepancy and the per-layer breakdown. Class
	// always serializes: class 0 is a real label, so omitempty would
	// make it indistinguishable from "no verdict".
	Class    int       `json:"class"`
	Valid    bool      `json:"valid,omitempty"`
	Joint    float64   `json:"joint,omitempty"`
	Layers   []int     `json:"layers,omitempty"`
	PerLayer []float64 `json:"per_layer,omitempty"`

	// Serving context at emit time.
	QueueDepth int     `json:"queue_depth,omitempty"`
	LatencySec float64 `json:"latency_sec,omitempty"`

	// Err carries the error string for failure events.
	Err string `json:"error,omitempty"`

	// SLO payload (slo_breach events): objective name, the burn rates
	// per window, and cross-links to offending traces.
	SLO      string             `json:"slo,omitempty"`
	Burn     map[string]float64 `json:"burn,omitempty"`
	TraceIDs []string           `json:"trace_ids,omitempty"`

	// Extra holds event-type-specific fields that do not merit a
	// top-level column (e.g. a hunt transformation chain).
	Extra map[string]any `json:"extra,omitempty"`
}

// verdictBearing reports whether the event carries a model verdict, so
// triage filters on valid/class apply. Mirrors the flight recorder's
// notion: shed and expired requests never reached the model.
func (e *Event) verdictBearing() bool {
	switch e.Type {
	case TypeQuarantine, TypeHuntEscape:
		return true
	case TypeRequest:
		return e.Outcome == "ok" || e.Outcome == "quarantined"
	}
	return false
}
