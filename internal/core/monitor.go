package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"deepvalidation/internal/metrics"
	"deepvalidation/internal/nn"
	"deepvalidation/internal/tensor"
)

// Monitor wraps a classifier and its fitted validator into the runtime
// fail-safe component the paper motivates: every prediction is
// validated, and predictions whose joint discrepancy reaches ε (d ≥ ε)
// are flagged so the surrounding system can "call for human
// intervention" (Section VI). Monitor is safe for concurrent use.
type Monitor struct {
	net     *nn.Network
	val     *Validator
	epsilon float64

	mu           sync.Mutex
	workers      int
	checked      int
	flagged      int
	classChecked []int // indexed by predicted class
	classFlagged []int
	recent       []bool // ring buffer of recent validity flags
	next         int
	filled       bool

	// tel holds the attached telemetry handles (nil when detached);
	// read atomically so Check never takes the stats lock for it.
	tel atomic.Pointer[monTelemetry]

	// quarHook, when set, receives every quarantined verdict. It is
	// consulted only on the quarantine branch, so the valid-verdict hot
	// path never pays for it.
	quarHook atomic.Pointer[QuarantineHook]
}

// QuarantineHook observes one quarantined verdict together with its
// raw scoring result (whose per-layer values may be non-finite — that
// is why it was quarantined). Hooks run on the checking goroutine,
// outside the monitor's stats lock, and must be safe for concurrent
// calls.
type QuarantineHook func(v Verdict, res Result)

// SetQuarantineHook installs (or, with nil, removes) the quarantine
// observer. The serving layer uses it to emit wide events for
// numerics-rejected verdicts.
func (m *Monitor) SetQuarantineHook(h QuarantineHook) {
	if h == nil {
		m.quarHook.Store(nil)
		return
	}
	m.quarHook.Store(&h)
}

// recentWindow sizes the sliding alarm-rate window.
const recentWindow = 50

// Verdict is the outcome of one monitored prediction.
type Verdict struct {
	// Label and Confidence are the classifier's output.
	Label      int
	Confidence float64
	// Discrepancy is the joint discrepancy d of Algorithm 2; higher
	// means further outside the training distribution. For a
	// quarantined verdict it covers only the finite layer terms, so it
	// stays representable everywhere (JSON cannot carry NaN).
	Discrepancy float64
	// Valid is true when d < ε: the prediction may be trusted. A
	// quarantined verdict is never valid.
	Valid bool
	// Quarantined is true when scoring hit non-finite numerics (an
	// overflowing activation, a corrupt weight): the discrepancy is not
	// a trustworthy distance, so the sample is rejected outright
	// instead of being compared against ε. Counted separately in
	// telemetry (dv_quarantined_total) so operators can tell numeric
	// corruption apart from detected corner cases.
	Quarantined bool
}

// ClassStats is the per-predicted-class slice of a monitor's lifetime
// counts.
type ClassStats struct {
	// Checked counts verdicts whose predicted label was this class;
	// Flagged counts how many of those were flagged (d ≥ ε).
	Checked, Flagged int
}

// StatsSnapshot is the full statistics surface of a monitor.
type StatsSnapshot struct {
	// Checked and Flagged are lifetime totals.
	Checked, Flagged int
	// RecentAlarmRate is the flagged fraction over the RecentFill most
	// recent verdicts. Before RecentWindow verdicts have been seen the
	// window is only partially filled, so the rate is computed over
	// RecentFill < RecentWindow samples and is correspondingly noisy —
	// a supervisor should gate on RecentFill before alerting.
	RecentAlarmRate float64
	// RecentWindow is the window capacity (currently 50); RecentFill
	// is how many of its slots hold real verdicts.
	RecentWindow, RecentFill int
	// PerClass breaks Checked/Flagged down by *predicted* class. The
	// per-class flag rate PerClass[k].Flagged/PerClass[k].Checked
	// localizes drift: a single class flagging hard usually means a
	// class-specific environmental change rather than global drift.
	PerClass []ClassStats
}

// NewMonitor assembles a runtime monitor with detection threshold
// epsilon.
func NewMonitor(net *nn.Network, val *Validator, epsilon float64) (*Monitor, error) {
	if net == nil || val == nil {
		return nil, fmt.Errorf("core: monitor needs both a network and a validator")
	}
	if net.Classes != val.Classes {
		return nil, fmt.Errorf("core: network has %d classes but validator was fitted for %d", net.Classes, val.Classes)
	}
	for _, l := range val.LayerIdx {
		if l >= net.NumLayers()-1 {
			return nil, fmt.Errorf("core: validator probes layer %d but network has %d hidden layers", l, net.NumLayers()-1)
		}
	}
	return &Monitor{
		net: net, val: val, epsilon: epsilon,
		recent:       make([]bool, recentWindow),
		classChecked: make([]int, val.Classes),
		classFlagged: make([]int, val.Classes),
	}, nil
}

// SetWorkers bounds the worker pool CheckBatch and CalibrateEpsilon
// use (0 = GOMAXPROCS, 1 = sequential). Single-sample Check always runs
// on the calling goroutine.
func (m *Monitor) SetWorkers(n int) {
	m.mu.Lock()
	m.workers = n
	m.mu.Unlock()
}

// Workers returns the configured batch worker bound.
func (m *Monitor) Workers() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.workers
}

// CalibrateEpsilon sets ε so that at most the given fraction of the
// provided clean samples is flagged (the false positive rate budget of
// Section IV-D3), and returns the chosen value.
func (m *Monitor) CalibrateEpsilon(clean []*tensor.Tensor, fpr float64) float64 {
	return m.CalibrateInput(len(clean), Tensors(clean), fpr)
}

// CalibrateInput is CalibrateEpsilon over the n clean samples of in.
func (m *Monitor) CalibrateInput(n int, in Input, fpr float64) float64 {
	scores := make([]float64, n)
	m.val.scoreEach(m.net, n, m.Workers(), in, nil, func(i int, res *Result) { scores[i] = res.Joint })
	eps := metrics.ThresholdForFPR(scores, fpr)
	m.SetEpsilon(eps)
	return eps
}

// Epsilon returns the current detection threshold.
func (m *Monitor) Epsilon() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epsilon
}

// SetEpsilon overrides the detection threshold.
func (m *Monitor) SetEpsilon(eps float64) {
	m.mu.Lock()
	m.epsilon = eps
	m.mu.Unlock()
	if t := m.tel.Load(); t != nil {
		t.epsilon.Set(eps)
	}
}

// record folds one verdict into the lifetime statistics. Callers hold
// m.mu.
func (m *Monitor) record(label int, valid bool) {
	m.checked++
	m.classChecked[label]++
	if !valid {
		m.flagged++
		m.classFlagged[label]++
	}
	m.recent[m.next] = !valid
	m.next = (m.next + 1) % len(m.recent)
	if m.next == 0 {
		m.filled = true
	}
}

// Check classifies x and validates the prediction.
func (m *Monitor) Check(x *tensor.Tensor) Verdict {
	v, _ := m.CheckDetailed(x, nil)
	return v
}

// CheckDetailed is Check returning the underlying scoring Result too —
// the per-layer discrepancies the Verdict's joint score collapses —
// plus optional stage timing into tm (nil adds no clock reads). It is
// CheckBatchInto over one sample, on the calling goroutine.
func (m *Monitor) CheckDetailed(x *tensor.Tensor, tm *ScoreTimings) (Verdict, Result) {
	var v [1]Verdict
	var res Result
	m.CheckBatchInto(Batch{
		Input:   func(int, *tensor.Tensor) *tensor.Tensor { return x },
		Out:     v[:],
		Timings: []*ScoreTimings{tm},
		Result: func(_ int, r Result) {
			res = r
			res.Layer = append([]float64(nil), r.Layer...)
		},
	})
	return v[0], res
}

// CheckBatch classifies and validates many samples, returning verdicts
// in input order; it is CheckBatchInto over xs.
func (m *Monitor) CheckBatch(xs []*tensor.Tensor) []Verdict {
	out := make([]Verdict, len(xs))
	m.CheckBatchInto(Batch{Input: Tensors(xs), Out: out})
	return out
}

// Batch is one CheckBatchInto call: where its samples come from and
// where their verdicts and diagnostics go.
type Batch struct {
	// Input supplies the samples and Out receives their verdicts; the
	// batch is len(Out) samples long.
	Input Input
	Out   []Verdict
	// Timings requests stage timing: it may be nil, shorter than Out,
	// or hold nil entries; only samples with a non-nil entry pay for
	// clock reads.
	Timings []*ScoreTimings
	// Result, when non-nil, receives each sample's scoring result on the
	// worker that scored it (concurrently for distinct samples), before
	// statistics are recorded. r.Layer is that worker's row and is
	// overwritten by its next sample: copy it to keep it.
	Result func(i int, r Result)
}

// CheckBatchInto is the one check body every monitor and Detector check
// runs. Scoring fans across the monitor's worker pool, one arena and
// one input header per worker for the whole batch, and writes each
// verdict straight into its slot, so a warm call allocates only a
// constant per batch. The lifetime statistics are then updated once, in
// input order, so Stats afterwards is identical to a sequence of
// one-sample checks. With telemetry attached, each verdict observes the
// batch's amortized per-sample latency (elapsed / batch size) into
// MetricVerdictLatency; per-sample score latency comes from the
// validator's own MetricScoreLatency histogram. The quarantine hook
// then sees each quarantined verdict, in input order, with an owned
// copy of its per-layer row.
func (m *Monitor) CheckBatchInto(b Batch) {
	tel := m.tel.Load()
	var t0 time.Time
	if tel != nil {
		t0 = time.Now()
	}
	hook := m.quarHook.Load()
	var heldMu sync.Mutex
	var held [][]float64 // held[i]: quarantined sample i's row, for the hook
	m.val.scoreEach(m.net, len(b.Out), m.Workers(), b.Input, b.Timings, func(i int, res *Result) {
		b.Out[i] = Verdict{
			Label:       res.Label,
			Confidence:  res.Confidence,
			Discrepancy: res.Joint,
			Quarantined: res.NonFinite,
		}
		if b.Result != nil {
			b.Result(i, *res)
		}
		if res.NonFinite && hook != nil {
			row := append([]float64(nil), res.Layer...)
			heldMu.Lock()
			if held == nil {
				held = make([][]float64, len(b.Out))
			}
			held[i] = row
			heldMu.Unlock()
		}
	})
	m.mu.Lock()
	for i := range b.Out {
		v := &b.Out[i]
		v.Valid = !v.Quarantined && v.Discrepancy < m.epsilon
		m.record(v.Label, v.Valid)
	}
	m.mu.Unlock()
	if tel != nil && len(b.Out) > 0 {
		perSample := time.Since(t0).Seconds() / float64(len(b.Out))
		for _, v := range b.Out {
			tel.verdictLatency.Observe(perSample)
			tel.observe(v.Label, v.Valid, v.Quarantined)
		}
	}
	for i, row := range held {
		if row != nil {
			v := b.Out[i]
			(*hook)(v, Result{Label: v.Label, Confidence: v.Confidence, Layer: row, Joint: v.Discrepancy, NonFinite: true})
		}
	}
}

// Stats reports lifetime counts and the alarm rate over the most recent
// window — the signal a fail-safe supervisor watches for sustained
// environmental drift. Until recentWindow (50) verdicts have been
// seen, recentAlarmRate is computed over only the verdicts seen so far
// (a partially filled window); see StatsDetail's RecentFill to gate on
// warm-up. With zero checks the rate is 0.
func (m *Monitor) Stats() (checked, flagged int, recentAlarmRate float64) {
	s := m.StatsDetail()
	return s.Checked, s.Flagged, s.RecentAlarmRate
}

// StatsDetail reports the full statistics surface: lifetime totals,
// the recent-window alarm rate with its fill level, and per-class
// checked/flagged breakdowns.
func (m *Monitor) StatsDetail() StatsSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.next
	if m.filled {
		n = len(m.recent)
	}
	alarms := 0
	for i := 0; i < n; i++ {
		if m.recent[i] {
			alarms++
		}
	}
	rate := 0.0
	if n > 0 {
		rate = float64(alarms) / float64(n)
	}
	per := make([]ClassStats, len(m.classChecked))
	for k := range per {
		per[k] = ClassStats{Checked: m.classChecked[k], Flagged: m.classFlagged[k]}
	}
	return StatsSnapshot{
		Checked:         m.checked,
		Flagged:         m.flagged,
		RecentAlarmRate: rate,
		RecentWindow:    len(m.recent),
		RecentFill:      n,
		PerClass:        per,
	}
}
