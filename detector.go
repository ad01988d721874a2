package deepvalidation

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"deepvalidation/internal/core"
	"deepvalidation/internal/nn"
	"deepvalidation/internal/obs"
	"deepvalidation/internal/opt"
	"deepvalidation/internal/telemetry"
	"deepvalidation/internal/tensor"
)

// Detector pairs a trained classifier with its fitted Deep Validation
// monitor. Construct one with Build (train from scratch) or Load
// (restore persisted artifacts); it is safe for concurrent Check calls.
type Detector struct {
	net *nn.Network
	val *core.Validator
	mon *core.Monitor

	telOnce sync.Once
	telReg  *telemetry.Registry
	invalid atomic.Pointer[telemetry.Counter]
}

// Verdict is the outcome of checking one image: the classifier's
// Label and its softmax Confidence, the joint Discrepancy d of the
// paper's Algorithm 2, Valid (d below the calibrated threshold ε, so
// the prediction may be trusted) and Quarantined (scoring hit NaN or
// Inf numerics; never valid, and counted into dv_quarantined_total).
// It is the monitor's verdict type, so a batch check writes each
// verdict straight into the slice it returns; core.Verdict documents
// every field.
type Verdict = core.Verdict

// BuildConfig controls Build.
type BuildConfig struct {
	// Classes is the number of labels (required).
	Classes int
	// Epochs is the classifier training budget (default 8).
	Epochs int
	// Width and FCWidth size the CNN (defaults 8 and 64).
	Width, FCWidth int
	// Nu is the one-class SVM ν (default 0.1).
	Nu float64
	// SVMPerClass and SVMFeatures bound validator fitting
	// (defaults 200 and 256).
	SVMPerClass, SVMFeatures int
	// Seed makes the whole build deterministic (default 1).
	Seed int64
	// Workers bounds the concurrency of classifier training, validator
	// fitting and CheckBatch/Calibrate scoring (0 = GOMAXPROCS,
	// 1 = sequential). Any value yields bit-identical results; pin it
	// to 1 for single-threaded reproducibility audits.
	Workers int
	// Progress, when non-nil, receives per-epoch training updates.
	Progress func(epoch int, loss, accuracy float64)
}

// Build trains a seven-layer CNN on the labelled images (the paper's
// Table II architecture, Adadelta recipe) and fits a Deep Validation
// detector over all hidden layers. Images must share one geometry.
func Build(images []Image, labels []int, cfg BuildConfig) (*Detector, error) {
	if len(images) == 0 {
		return nil, fmt.Errorf("deepvalidation: no training images")
	}
	if len(images) != len(labels) {
		return nil, fmt.Errorf("deepvalidation: %d images but %d labels", len(images), len(labels))
	}
	if cfg.Classes <= 1 {
		return nil, fmt.Errorf("deepvalidation: need at least 2 classes, got %d", cfg.Classes)
	}
	first := images[0]
	if first.Height != first.Width {
		return nil, fmt.Errorf("deepvalidation: only square images are supported, got %dx%d", first.Height, first.Width)
	}
	for i, im := range images[1:] {
		if im.Channels != first.Channels || im.Height != first.Height || im.Width != first.Width {
			return nil, fmt.Errorf("deepvalidation: image %d geometry differs from image 0", i+1)
		}
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 8
	}
	if cfg.Width <= 0 {
		cfg.Width = 8
	}
	if cfg.FCWidth <= 0 {
		cfg.FCWidth = 64
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}

	xs, err := tensorsOf(images)
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	net, err := nn.NewSevenLayerCNN("detector", first.Channels, first.Height, cfg.Classes,
		nn.ArchConfig{Width: cfg.Width, FCWidth: cfg.FCWidth}, rng)
	if err != nil {
		return nil, err
	}
	tr := nn.NewTrainer(net, opt.NewAdadelta(1.0, 0.95), rand.New(rand.NewSource(cfg.Seed+1)))
	if cfg.Workers > 0 {
		tr.Workers = cfg.Workers
	}
	tr.OnEpoch = cfg.Progress
	if _, err := tr.Train(xs, labels, cfg.Epochs); err != nil {
		return nil, err
	}

	val, err := core.Fit(net, xs, labels, core.Config{
		Nu:          cfg.Nu,
		MaxPerClass: cfg.SVMPerClass,
		MaxFeatures: cfg.SVMFeatures,
		Workers:     cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	det, err := assemble(net, val)
	if err != nil {
		return nil, err
	}
	det.SetWorkers(cfg.Workers)
	return det, nil
}

// Load restores a detector from files written by Save. Both artifacts
// are integrity-checked (SHA-256 for checksummed containers, gob and
// structural validation for legacy bare-gob files) and the pair is
// cross-checked for compatibility — model name, class count, and the
// tap-shape↔SVM-dimensionality agreement that would otherwise panic at
// the first Check — so a corrupt or mismatched pair fails here with a
// descriptive error instead of poisoning a running service.
func Load(modelPath, validatorPath string) (*Detector, error) {
	net, err := nn.Load(modelPath)
	if err != nil {
		return nil, err
	}
	val, err := core.LoadValidator(validatorPath)
	if err != nil {
		return nil, err
	}
	if err := core.CheckCompat(net, val); err != nil {
		return nil, fmt.Errorf("deepvalidation: %s and %s are not a compatible pair: %w", modelPath, validatorPath, err)
	}
	return assemble(net, val)
}

func assemble(net *nn.Network, val *core.Validator) (*Detector, error) {
	mon, err := core.NewMonitor(net, val, 0)
	if err != nil {
		return nil, err
	}
	return &Detector{net: net, val: val, mon: mon}, nil
}

// Save persists the detector's model and validator as checksummed
// artifact containers, each written atomically (temp file + fsync +
// rename) so a crash mid-save never clobbers a previously good
// artifact. Load verifies the checksums and still reads legacy
// bare-gob files written before the container format existed.
func (d *Detector) Save(modelPath, validatorPath string) error {
	if err := d.net.Save(modelPath); err != nil {
		return err
	}
	return d.val.Save(validatorPath)
}

// Telemetry returns the detector's metrics registry, enabling
// collection on first call: verdict counters (total and per predicted
// class), verdict and score latency histograms, per-layer and joint
// discrepancy histograms, the ε gauge, and the invalid-input counter.
// Until the first call the detector carries no instruments and the
// hot paths pay only a nil check. The registry is safe to read (e.g.
// Snapshot, WritePrometheus) while Check runs concurrently.
func (d *Detector) Telemetry() *telemetry.Registry {
	d.telOnce.Do(func() { d.attachTelemetry(telemetry.New()) })
	return d.telReg
}

// AttachTelemetry wires the detector's instruments into an existing
// registry instead of a fresh one, so several detectors — e.g. the old
// and new sides of a hot reload — observe into one set of counters and
// the series stay monotonic across swaps. It only takes effect on a
// detector whose telemetry is not yet enabled; the return value reports
// whether r was attached. A nil registry is ignored.
func (d *Detector) AttachTelemetry(r *telemetry.Registry) bool {
	if r == nil {
		return false
	}
	attached := false
	d.telOnce.Do(func() {
		d.attachTelemetry(r)
		attached = true
	})
	return attached
}

// attachTelemetry resolves the instrument handles; callers hold telOnce.
func (d *Detector) attachTelemetry(r *telemetry.Registry) {
	d.mon.SetTelemetry(r)
	d.invalid.Store(r.Counter(core.MetricInvalidInput))
	d.telReg = r
}

// countInvalid records one rejected input; a no-op until Telemetry has
// been called.
func (d *Detector) countInvalid() { d.invalid.Load().Inc() }

// AttachEvents mirrors every quarantined verdict into the wide-event
// log: each one becomes a TypeQuarantine event carrying the predicted
// class, the (finite-terms) joint discrepancy, and the per-layer
// breakdown. Unlike AttachTelemetry this may be called repeatedly —
// on a hot reload the replacement detector is attached to the same
// logger — and a nil logger detaches. The valid-verdict hot path pays
// only one atomic load either way.
func (d *Detector) AttachEvents(log *obs.Logger) {
	if log == nil {
		d.mon.SetQuarantineHook(nil)
		return
	}
	layers := d.val.LayerIdx
	d.mon.SetQuarantineHook(func(v core.Verdict, res core.Result) {
		e := obs.Event{
			Type:    obs.TypeQuarantine,
			Level:   obs.LevelWarn,
			Msg:     "verdict quarantined: non-finite numerics during scoring",
			Outcome: "quarantined",
			Class:   v.Label,
			Joint:   v.Discrepancy,
			Layers:  layers,
		}
		// The per-layer discrepancies usually include the NaN/Inf that
		// caused the quarantine; JSON cannot carry those, so non-finite
		// vectors ride along as strings instead.
		finite := true
		for _, x := range res.Layer {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				finite = false
				break
			}
		}
		if finite {
			e.PerLayer = res.Layer
		} else {
			raw := make([]string, len(res.Layer))
			for i, x := range res.Layer {
				raw[i] = strconv.FormatFloat(x, 'g', -1, 64)
			}
			e.Extra = map[string]any{"per_layer_raw": raw}
		}
		log.Emit(e)
	})
}

// Calibrate sets the detection threshold ε so that at most fpr of the
// given clean images is flagged, and returns the chosen ε. Run it once
// on held-out clean data before trusting Check's Valid field. Invalid
// images are rejected and counted as CheckBatch counts them. The
// pixels are read in place, never written or retained (see Image).
func (d *Detector) Calibrate(clean []Image, fpr float64) (float64, error) {
	if len(clean) == 0 {
		return 0, fmt.Errorf("deepvalidation: no calibration images")
	}
	if fpr < 0 || fpr >= 1 {
		return 0, fmt.Errorf("deepvalidation: fpr %v outside [0, 1)", fpr)
	}
	if err := d.validateAll(clean); err != nil {
		return 0, err
	}
	return d.mon.CalibrateInput(len(clean), pixels(clean), fpr), nil
}

// SetEpsilon overrides the detection threshold directly; most callers
// should prefer Calibrate.
func (d *Detector) SetEpsilon(eps float64) { d.mon.SetEpsilon(eps) }

// Epsilon returns the current detection threshold.
func (d *Detector) Epsilon() float64 { return d.mon.Epsilon() }

// Check classifies the image and validates the prediction. Rejected
// inputs (Image.Validate or geometry failures) count into the
// telemetry registry's dv_invalid_input_total when telemetry is
// enabled, so operators can tell malformed inputs apart from detected
// corner cases (dv_flagged_total). The pixels are read in place,
// never written or retained (see Image).
func (d *Detector) Check(img Image) (Verdict, error) {
	return d.CheckDetailed(img, nil)
}

// validate checks one image before it is scored — Image.Validate,
// then the network's input length — counting a rejection into
// dv_invalid_input_total. It builds no tensor.
func (d *Detector) validate(img Image) error {
	err := img.Validate()
	if err == nil {
		err = d.net.CheckInputShape(img.Channels, img.Height, img.Width)
	}
	if err != nil {
		d.countInvalid()
	}
	return err
}

// validateAll is validate over a batch. Every invalid image is counted,
// not just the first, though the error names only the first.
func (d *Detector) validateAll(imgs []Image) error {
	var firstErr error
	for i, im := range imgs {
		if err := d.validate(im); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("image %d: %w", i, err)
		}
	}
	return firstErr
}

// pixels is the core.Input over validated images: it points the
// scoring worker's header at each image's pixels, uncopied. Scoring
// runs each layer's ForwardInfer (nn.InferenceLayer), which only reads
// its input, so scoring the caller's pixels in place leaves them
// untouched.
func pixels(imgs []Image) core.Input {
	return func(i int, hdr *tensor.Tensor) *tensor.Tensor {
		im := imgs[i]
		hdr.Shape = append(hdr.Shape[:0], im.Channels, im.Height, im.Width)
		hdr.Data = im.Pixels
		return hdr
	}
}

// Detail receives the per-layer diagnostics of one checked image — the
// paper's d_i = −t(f_i(x)) per validated layer, the quantity the joint
// Discrepancy collapses. Set Timed before the call to also collect
// stage durations (one extra clock read per stage); leave it false and
// the check pays no timing cost.
type Detail struct {
	// Layers lists the validated tap indices; PerLayer[i] is d_i for
	// Layers[i]. Layers aliases the detector's internal slice — treat
	// it as read-only. PerLayer may carry NaN/±Inf on a quarantined
	// verdict; sanitize before JSON-encoding.
	Layers   []int
	PerLayer []float64
	// Timed requests stage timings: Forward is the tapped forward pass,
	// LayerTimes[i] the SVM scoring of Layers[i].
	Timed      bool
	Forward    time.Duration
	LayerTimes []time.Duration
}

// CheckDetailed is Check with per-layer diagnostics: a non-nil out is
// filled with the per-layer discrepancies (and, when out.Timed, stage
// durations). The verdict — and every statistic and telemetry update —
// is the same with or without out; Check is CheckDetailed(img, nil).
func (d *Detector) CheckDetailed(img Image, out *Detail) (Verdict, error) {
	if err := d.validate(img); err != nil {
		return Verdict{}, err
	}
	var v [1]Verdict
	d.check([]Image{img}, []*Detail{out}, v[:])
	return v[0], nil
}

// CheckBatchDetailed is CheckBatch with per-image diagnostics: details
// may be nil, shorter than imgs, or hold nil entries — only images
// with a non-nil *Detail collect diagnostics, and only those with
// Timed set pay for stage clock reads. Verdicts do not depend on
// details or the worker count; CheckBatch is CheckBatchDetailed(imgs,
// nil).
func (d *Detector) CheckBatchDetailed(imgs []Image, details []*Detail) ([]Verdict, error) {
	if err := d.validateAll(imgs); err != nil {
		return nil, err
	}
	out := make([]Verdict, len(imgs))
	d.check(imgs, details, out)
	return out, nil
}

// check is the body of every Detector check: it scores validated imgs
// through the monitor's batch body straight into out. Only images with
// a non-nil Detail get a PerLayer copy, and only Timed ones a
// ScoreTimings.
func (d *Detector) check(imgs []Image, details []*Detail, out []Verdict) {
	details = details[:min(len(details), len(imgs))]
	b := core.Batch{Input: pixels(imgs), Out: out}
	detailed := false
	for i, dt := range details {
		if dt == nil {
			continue
		}
		detailed = true
		if dt.Timed {
			if b.Timings == nil {
				b.Timings = make([]*core.ScoreTimings, len(details))
			}
			b.Timings[i] = &core.ScoreTimings{}
		}
	}
	if detailed {
		tms := b.Timings
		b.Result = func(i int, r core.Result) {
			if i >= len(details) || details[i] == nil {
				return
			}
			dt := details[i]
			dt.Layers = d.val.LayerIdx
			dt.PerLayer = append([]float64(nil), r.Layer...)
			if tms != nil && tms[i] != nil {
				dt.Forward = tms[i].Forward
				dt.LayerTimes = tms[i].Layers
			}
		}
	}
	d.mon.CheckBatchInto(b)
}

// DriftReference returns the fit-time drift reference persisted in the
// validator: the validated tap indices, the quantile probabilities,
// and per-layer reference quantiles (quantiles[i][j] is the probs[j]
// quantile of layer layers[i]'s training discrepancies). ok is false —
// and every slice nil — for detectors whose validator predates the
// reference (legacy artifacts) or was fitted without it; drift
// watching then degrades to disabled. The returned slices are copies.
func (d *Detector) DriftReference() (layers []int, probs []float64, quantiles [][]float64, ok bool) {
	if !d.val.HasDriftReference() {
		return nil, nil, nil, false
	}
	layers = append([]int(nil), d.val.LayerIdx...)
	probs = append([]float64(nil), d.val.DriftProbs...)
	quantiles = make([][]float64, len(d.val.DriftQuantiles))
	for i, row := range d.val.DriftQuantiles {
		quantiles[i] = append([]float64(nil), row...)
	}
	return layers, probs, quantiles, true
}

// SetWorkers bounds the worker pool CheckBatch and Calibrate use
// (0 = GOMAXPROCS, 1 = sequential). Results are identical for every
// setting; only throughput changes.
func (d *Detector) SetWorkers(n int) { d.mon.SetWorkers(n) }

// CheckBatch classifies and validates many images concurrently,
// returning verdicts in input order. Verdicts — and the detector's
// Stats — are exactly those of sequential Check calls over the same
// images; the batch just fans the scoring across the configured worker
// pool.
// Every invalid image in the batch is counted into
// dv_invalid_input_total (not just the first, even though the batch
// aborts on the first error), so the telemetry totals match what a
// sequential Check loop would have recorded. The pixels are read in
// place, never written or retained (see Image); concurrent calls may
// share one []Image.
func (d *Detector) CheckBatch(imgs []Image) ([]Verdict, error) {
	return d.CheckBatchDetailed(imgs, nil)
}

// Stats reports how many inputs were checked and flagged since the
// detector was assembled, plus the alarm rate over the most recent
// inputs — a drift signal for fail-safe supervisors. Until 50 inputs
// have been checked, recentAlarmRate is computed over only the inputs
// seen so far (a partially filled window) and is correspondingly
// noisy; StatsDetail exposes the fill level to gate on.
func (d *Detector) Stats() (checked, flagged int, recentAlarmRate float64) {
	return d.mon.Stats()
}

// ClassStats is one predicted class's slice of the detector's lifetime
// counts.
type ClassStats struct {
	// Checked counts verdicts predicted as this class; Flagged counts
	// how many of those the detector flagged.
	Checked, Flagged int
}

// StatsDetail is the full statistics surface of a detector.
type StatsDetail struct {
	// Checked and Flagged are lifetime totals.
	Checked, Flagged int
	// RecentAlarmRate is the flagged fraction over the RecentFill most
	// recent verdicts; RecentWindow is the window capacity and
	// RecentFill how many slots are populated. Before RecentWindow
	// checks the window is partial — gate alerting on RecentFill.
	RecentAlarmRate          float64
	RecentWindow, RecentFill int
	// PerClass breaks the totals down by predicted class; a single
	// class flagging hard suggests class-specific drift.
	PerClass []ClassStats
}

// StatsDetail reports lifetime totals, the recent-window alarm rate
// with its fill level, and per-predicted-class breakdowns.
func (d *Detector) StatsDetail() StatsDetail {
	s := d.mon.StatsDetail()
	per := make([]ClassStats, len(s.PerClass))
	for k, c := range s.PerClass {
		per[k] = ClassStats{Checked: c.Checked, Flagged: c.Flagged}
	}
	return StatsDetail{
		Checked:         s.Checked,
		Flagged:         s.Flagged,
		RecentAlarmRate: s.RecentAlarmRate,
		RecentWindow:    s.RecentWindow,
		RecentFill:      s.RecentFill,
		PerClass:        per,
	}
}

// Classes returns the number of labels the detector predicts.
func (d *Detector) Classes() int { return d.net.Classes }

// InputShape returns the image geometry the detector's classifier
// expects, so admission layers (e.g. an HTTP front end) can reject
// wrong-shape inputs before queueing them.
func (d *Detector) InputShape() (channels, height, width int) {
	s := d.net.InShape
	if len(s) != 3 {
		return 0, 0, 0
	}
	return s[0], s[1], s[2]
}

// Handle is an atomically swappable reference to a Detector — the
// zero-downtime hot-reload primitive for long-running servers. Readers
// call Get on every request and always see a fully assembled detector;
// Swap publishes a replacement (e.g. a re-fitted validator) without
// pausing in-flight checks, which finish on the detector they started
// with. The zero value holds nil.
type Handle struct {
	p atomic.Pointer[Detector]
}

// NewHandle returns a handle holding d.
func NewHandle(d *Detector) *Handle {
	h := &Handle{}
	h.p.Store(d)
	return h
}

// Get returns the current detector (nil if none was ever stored).
func (h *Handle) Get() *Detector { return h.p.Load() }

// Swap atomically replaces the detector and returns the previous one.
func (h *Handle) Swap(d *Detector) *Detector { return h.p.Swap(d) }
