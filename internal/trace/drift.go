package trace

import (
	"math"
	"sort"
	"strconv"
	"sync"

	"deepvalidation/internal/metrics"
	"deepvalidation/internal/telemetry"
)

// Drift metric names (see internal/core/telemetry.go for the naming
// scheme shared across the repo).
const (
	// MetricDriftScore is a per-layer gauge (label layer="N", N the tap
	// index) holding the current quantile-shift score of the live
	// discrepancy window against the fit-time reference.
	MetricDriftScore = "dv_drift_score"
	// MetricDriftAlarm is 1 while any layer's drift score is at or
	// above the threshold, else 0.
	MetricDriftAlarm = "dv_drift_alarm"
	// MetricDriftWindowFill is the number of verdicts currently in the
	// sliding window.
	MetricDriftWindowFill = "dv_drift_window_fill"
)

// Default drift-watch tuning. MinFill is clamped to the window size so
// tiny test windows still warm up.
const (
	DefaultDriftWindow    = 512
	DefaultDriftMinFill   = 32
	DefaultDriftThreshold = 0.5
	driftRecomputeEvery   = 16
)

// DriftConfig describes a drift watch over the serving path's per-layer
// discrepancies.
type DriftConfig struct {
	Layers    []int       // tap indices, parallel to Ref (gauge labels)
	Probs     []float64   // quantile probabilities of the reference
	Ref       [][]float64 // fit-time reference quantiles, [layer][prob]
	Window    int         // sliding-window size; <= 0 means DefaultDriftWindow
	Threshold float64     // alarm threshold; <= 0 means DefaultDriftThreshold
	Registry  *telemetry.Registry
	// OnAlarm, when non-nil, is invoked with the fresh status on every
	// alarm transition (raise and clear), outside the watch's mutex —
	// the hook the serving layer uses to emit drift-alarm events.
	// Callbacks run on the Observe caller's goroutine and must not call
	// back into the watch synchronously in a way that blocks.
	OnAlarm func(DriftStatus)
}

// DriftStatus is the JSON-ready summary served on /debug/dv/drift and
// folded into /readyz.
type DriftStatus struct {
	Enabled   bool      `json:"enabled"`
	Warming   bool      `json:"warming,omitempty"`
	Fill      int       `json:"fill"`
	Window    int       `json:"window"`
	MinFill   int       `json:"min_fill"`
	Threshold float64   `json:"threshold"`
	Layers    []int     `json:"layers,omitempty"`
	Scores    []float64 `json:"scores,omitempty"`
	MaxScore  float64   `json:"max_score"`
	Alarm     bool      `json:"alarm"`
}

// DriftWatch maintains a sliding window of per-layer discrepancies and
// scores each layer's live quantiles against the fit-time reference:
//
//	score_l = mean_q |Q_live_l(q) − Q_ref_l(q)| / max(range(Q_ref_l), 1e-9)
//
// i.e. the mean absolute quantile shift, normalized by the reference's
// quantile range so the score is comparable across layers with very
// different discrepancy scales. Scores (and the alarm) recompute every
// driftRecomputeEvery observations once the window has warmed past
// MinFill. Both sketches are exact quantiles with linear interpolation
// (metrics.QuantilesSorted), so the comparison is deterministic — no
// randomized summaries, no merge order to worry about.
type DriftWatch struct {
	cfg     DriftConfig
	minFill int

	mu       sync.Mutex
	rings    [][]float64 // [layer][window]
	next     int
	fill     int
	sinceRec int
	scores   []float64
	maxScore float64
	alarm    bool
	// live and quantiles are recomputeLocked's scratch: the window
	// sorted for one layer, and that layer's quantiles.
	live      []float64
	quantiles []float64

	gScores []*telemetry.Gauge
	gAlarm  *telemetry.Gauge
	gFill   *telemetry.Gauge
}

// NewDriftWatch builds a watch from a fit-time reference. It returns
// nil — the disabled, nil-safe state — when the reference is absent or
// malformed (legacy artifacts decode with no drift fields and land
// here).
func NewDriftWatch(cfg DriftConfig) *DriftWatch {
	if len(cfg.Layers) == 0 || len(cfg.Probs) < 2 || len(cfg.Ref) != len(cfg.Layers) {
		return nil
	}
	for _, q := range cfg.Ref {
		if len(q) != len(cfg.Probs) {
			return nil
		}
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultDriftWindow
	}
	if cfg.Threshold <= 0 {
		cfg.Threshold = DefaultDriftThreshold
	}
	w := &DriftWatch{
		cfg:       cfg,
		minFill:   min(DefaultDriftMinFill, cfg.Window),
		rings:     make([][]float64, len(cfg.Layers)),
		scores:    make([]float64, len(cfg.Layers)),
		gScores:   make([]*telemetry.Gauge, len(cfg.Layers)),
		live:      make([]float64, cfg.Window),
		quantiles: make([]float64, len(cfg.Probs)),
	}
	for i := range w.rings {
		w.rings[i] = make([]float64, cfg.Window)
	}
	// Register gauges eagerly so /metrics exposes the drift family as
	// soon as the server is up, not only after the first recompute.
	for i, l := range cfg.Layers {
		w.gScores[i] = cfg.Registry.Gauge(telemetry.Label(MetricDriftScore, "layer", strconv.Itoa(l)))
	}
	w.gAlarm = cfg.Registry.Gauge(MetricDriftAlarm)
	w.gFill = cfg.Registry.Gauge(MetricDriftWindowFill)
	return w
}

// Observe feeds one verdict's per-layer discrepancies (parallel to
// cfg.Layers) into the window. Vectors containing non-finite values —
// quarantined verdicts — are skipped entirely: they carry no
// distributional information, only numerical failure. Nil-safe.
func (w *DriftWatch) Observe(perLayer []float64) {
	if w == nil || len(perLayer) != len(w.rings) {
		return
	}
	for _, v := range perLayer {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return
		}
	}
	w.mu.Lock()
	for l, v := range perLayer {
		w.rings[l][w.next] = v
	}
	w.next = (w.next + 1) % w.cfg.Window
	if w.fill < w.cfg.Window {
		w.fill++
	}
	w.gFill.Set(float64(w.fill))
	w.sinceRec++
	var notify *DriftStatus
	if w.fill >= w.minFill && (w.sinceRec >= driftRecomputeEvery || w.fill == w.minFill) {
		prev := w.alarm
		w.recomputeLocked()
		if w.alarm != prev && w.cfg.OnAlarm != nil {
			st := w.statusLocked()
			notify = &st
		}
	}
	w.mu.Unlock()
	// The transition callback runs outside the mutex so it may take
	// other locks (event ring, sinks) without ordering constraints.
	if notify != nil {
		w.cfg.OnAlarm(*notify)
	}
}

// recomputeLocked refreshes per-layer scores, the alarm, and their
// gauges without allocating. Caller holds w.mu.
func (w *DriftWatch) recomputeLocked() {
	w.sinceRec = 0
	w.maxScore = 0
	live := w.live[:w.fill]
	for l := range w.rings {
		copy(live, w.rings[l][:w.fill])
		sort.Float64s(live)
		qs := metrics.QuantilesSortedInto(w.quantiles, live, w.cfg.Probs)
		ref := w.cfg.Ref[l]
		scale := math.Abs(ref[len(ref)-1] - ref[0])
		if scale < 1e-9 {
			scale = 1e-9
		}
		sum := 0.0
		for i := range qs {
			sum += math.Abs(qs[i] - ref[i])
		}
		score := sum / float64(len(qs)) / scale
		w.scores[l] = score
		w.gScores[l].Set(score)
		if score > w.maxScore {
			w.maxScore = score
		}
	}
	w.alarm = w.maxScore >= w.cfg.Threshold
	if w.alarm {
		w.gAlarm.Set(1)
	} else {
		w.gAlarm.Set(0)
	}
}

// Status returns the current drift summary. A nil watch reports
// Enabled: false — the legacy-artifact degradation.
func (w *DriftWatch) Status() DriftStatus {
	if w == nil {
		return DriftStatus{}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.statusLocked()
}

// statusLocked builds the status snapshot; caller holds w.mu.
func (w *DriftWatch) statusLocked() DriftStatus {
	st := DriftStatus{
		Enabled:   true,
		Warming:   w.fill < w.minFill,
		Fill:      w.fill,
		Window:    w.cfg.Window,
		MinFill:   w.minFill,
		Threshold: w.cfg.Threshold,
		Layers:    append([]int(nil), w.cfg.Layers...),
		MaxScore:  w.maxScore,
		Alarm:     w.alarm,
	}
	if !st.Warming {
		st.Scores = append([]float64(nil), w.scores...)
	}
	return st
}
