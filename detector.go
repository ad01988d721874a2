package deepvalidation

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"deepvalidation/internal/core"
	"deepvalidation/internal/freelist"
	"deepvalidation/internal/metrics"
	"deepvalidation/internal/nn"
	"deepvalidation/internal/obs"
	"deepvalidation/internal/opt"
	"deepvalidation/internal/telemetry"
	"deepvalidation/internal/tensor"
)

// Detector pairs a trained classifier with its fitted Deep Validation
// validator and turns each prediction into a verdict: it owns the
// detection threshold ε, the worker bound, the verdict statistics and
// telemetry, and the quarantine events. Construct one with Build (train
// from scratch) or Load (restore persisted artifacts); it is safe for
// concurrent use.
type Detector struct {
	net *nn.Network
	val *core.Validator

	// modelSHA and validatorSHA are the payload checksums Load verified
	// (empty when built, or for legacy bare-gob files).
	modelSHA, validatorSHA string

	// mu guards ε, the worker bound and the verdict statistics.
	mu           sync.Mutex
	epsilon      float64
	workers      int
	checked      int
	flagged      int
	classChecked []int // indexed by predicted class
	classFlagged []int
	recent       []bool // ring buffer of recent flags
	next         int
	filled       bool

	telOnce sync.Once
	telReg  *telemetry.Registry
	// tel holds the resolved instruments (nil until telemetry is
	// enabled), read atomically so a check never takes mu for it.
	tel atomic.Pointer[detTelemetry]
	// events receives a wide event per quarantined verdict (nil when
	// detached); a check consults it only on the quarantine branch.
	events atomic.Pointer[obs.Logger]

	// states is the free list of check states (see checkState); a GC
	// never empties it, so a warm check builds none.
	states freelist.List[*checkState]
}

// recentWindow sizes the sliding alarm-rate window.
const recentWindow = 50

// Verdict is the outcome of checking one image.
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
	// a trustworthy distance, so the image is rejected outright instead
	// of being compared against ε. Counted separately in telemetry
	// (dv_quarantined_total) so operators can tell numeric corruption
	// apart from detected corner cases.
	Quarantined bool
}

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
	det := assemble(net, val)
	det.SetWorkers(cfg.Workers)
	return det, nil
}

// Load restores a detector from files written by Save, through
// core.LoadPair: the model and the validator load at once, on two
// goroutines joined before Load returns. Both artifacts are
// integrity-checked (SHA-256 for checksummed containers, verified
// before the payload is decoded; gob and structural validation for
// legacy bare-gob files) and the pair is cross-checked for
// compatibility — model name, class count, and the
// tap-shape↔SVM-dimensionality agreement that would otherwise panic at
// the first Check — so a corrupt or mismatched pair fails here with a
// descriptive error instead of poisoning a running service. When both
// files are bad, the model's error is the one returned.
//
// The detector keeps the payload checksums it verified (ArtifactSHAs),
// so what it reports describes the bytes it was built from even if the
// files are replaced afterwards.
func Load(modelPath, validatorPath string) (*Detector, error) {
	p, err := core.LoadPair(modelPath, validatorPath)
	if err != nil {
		var incompat *core.IncompatibleError
		if errors.As(err, &incompat) {
			return nil, fmt.Errorf("deepvalidation: %s and %s are not a compatible pair: %w", modelPath, validatorPath, err)
		}
		return nil, err
	}
	d := assemble(p.Net, p.Val)
	d.modelSHA, d.validatorSHA = p.ModelInfo.Header.PayloadSHA256, p.ValidatorInfo.Header.PayloadSHA256
	return d, nil
}

// ArtifactSHAs returns the SHA-256 payload checksums (hex) of the model
// and validator artifacts Load verified: the identity a fleet compares
// during a rollout. Both are empty for a detector from Build, and each
// is empty for a legacy bare-gob file, which carries no checksum.
func (d *Detector) ArtifactSHAs() (modelSHA256, validatorSHA256 string) {
	return d.modelSHA, d.validatorSHA
}

// assemble wraps a compatible model/validator pair with ε = 0 and
// empty statistics.
func assemble(net *nn.Network, val *core.Validator) *Detector {
	return &Detector{
		net: net, val: val,
		recent:       make([]bool, recentWindow),
		classChecked: make([]int, val.Classes),
		classFlagged: make([]int, val.Classes),
		// A held state keeps no caller's images, details or verdicts.
		states: freelist.List[*checkState]{Reset: func(st *checkState) { *st = checkState{} }},
	}
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

// detTelemetry holds the detector's resolved instrument handles.
type detTelemetry struct {
	checked        *telemetry.Counter
	flagged        *telemetry.Counter
	quarantined    *telemetry.Counter
	invalid        *telemetry.Counter
	classChecked   []*telemetry.Counter // indexed by predicted class
	classFlagged   []*telemetry.Counter
	verdictLatency *telemetry.Histogram
	epsilon        *telemetry.Gauge
}

// attachTelemetry resolves the instrument handles, the validator's
// included, so one registry instruments the whole check path; callers
// hold telOnce.
func (d *Detector) attachTelemetry(r *telemetry.Registry) {
	d.val.SetTelemetry(r)
	t := &detTelemetry{
		checked:        r.Counter(core.MetricChecked),
		flagged:        r.Counter(core.MetricFlagged),
		quarantined:    r.Counter(core.MetricQuarantined),
		invalid:        r.Counter(core.MetricInvalidInput),
		classChecked:   make([]*telemetry.Counter, d.val.Classes),
		classFlagged:   make([]*telemetry.Counter, d.val.Classes),
		verdictLatency: r.Histogram(core.MetricVerdictLatency, telemetry.DefLatencyBuckets),
		epsilon:        r.Gauge(core.MetricEpsilon),
	}
	for k := range t.classChecked {
		label := strconv.Itoa(k)
		t.classChecked[k] = r.Counter(telemetry.Label(core.MetricClassChecked, "class", label))
		t.classFlagged[k] = r.Counter(telemetry.Label(core.MetricClassFlagged, "class", label))
	}
	t.epsilon.Set(d.Epsilon())
	d.tel.Store(t)
	d.telReg = r
}

// observe folds one verdict into the counters; latency is observed
// separately because a batch amortizes it.
func (t *detTelemetry) observe(v Verdict) {
	t.checked.Inc()
	t.classChecked[v.Label].Inc()
	if !v.Valid {
		t.flagged.Inc()
		t.classFlagged[v.Label].Inc()
	}
	if v.Quarantined {
		t.quarantined.Inc()
	}
}

// countInvalid records one rejected input; a no-op until telemetry is
// enabled.
func (d *Detector) countInvalid() {
	if t := d.tel.Load(); t != nil {
		t.invalid.Inc()
	}
}

// AttachEvents mirrors every quarantined verdict into the wide-event
// log: each one becomes a TypeQuarantine event carrying the predicted
// class, the (finite-terms) joint discrepancy, and the per-layer
// breakdown. Unlike AttachTelemetry this may be called repeatedly —
// on a hot reload the replacement detector is attached to the same
// logger — and a nil logger detaches. The valid-verdict hot path pays
// only one atomic load either way.
func (d *Detector) AttachEvents(log *obs.Logger) { d.events.Store(log) }

// emitQuarantine logs one quarantined verdict with its per-layer row.
func (d *Detector) emitQuarantine(log *obs.Logger, v Verdict, row []float64) {
	e := obs.Event{
		Type:    obs.TypeQuarantine,
		Level:   obs.LevelWarn,
		Msg:     "verdict quarantined: non-finite numerics during scoring",
		Outcome: "quarantined",
		Class:   v.Label,
		Joint:   v.Discrepancy,
		Layers:  d.val.LayerIdx,
	}
	// The per-layer discrepancies usually include the NaN/Inf that
	// caused the quarantine; JSON cannot carry those, so non-finite
	// vectors ride along as strings instead.
	finite := true
	for _, x := range row {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			finite = false
			break
		}
	}
	if finite {
		e.PerLayer = row
	} else {
		raw := make([]string, len(row))
		for i, x := range row {
			raw[i] = strconv.FormatFloat(x, 'g', -1, 64)
		}
		e.Extra = map[string]any{"per_layer_raw": raw}
	}
	log.Emit(e)
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
	out := make([]Verdict, len(clean))
	st := d.takeState(clean, nil, out, nil)
	d.val.ScoreEach(d.net, len(clean), d.workerBound(), st, nil)
	d.states.Put(st)
	scores := make([]float64, len(clean))
	for i, v := range out {
		scores[i] = v.Discrepancy
	}
	eps := metrics.ThresholdForFPR(scores, fpr)
	d.SetEpsilon(eps)
	return eps, nil
}

// SetEpsilon overrides the detection threshold directly; most callers
// should prefer Calibrate.
func (d *Detector) SetEpsilon(eps float64) {
	d.mu.Lock()
	d.epsilon = eps
	d.mu.Unlock()
	if t := d.tel.Load(); t != nil {
		t.epsilon.Set(eps)
	}
}

// Epsilon returns the current detection threshold.
func (d *Detector) Epsilon() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.epsilon
}

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

// checkState is the core.Batch of one check call: the validated images
// it scores, in place and uncopied, and the verdicts and details it
// fills. Scoring runs each layer's ForwardInfer (nn.InferenceLayer),
// which only reads its input, so the caller's pixels stay untouched.
// States come from the detector's free list and go back after the
// call, so a warm check makes no closure and no state.
type checkState struct {
	layers  []int // the validator's LayerIdx, for Detail.Layers
	imgs    []Image
	details []*Detail
	out     []Verdict
	// events is the event log quarantined verdicts go to (nil when
	// detached). held[i] is quarantined image i's row, kept for it;
	// quarantine is rare, so held is made on the first one.
	events *obs.Logger
	mu     sync.Mutex
	held   [][]float64
}

// takeState returns a state, from the free list when it holds one, for
// one check call.
func (d *Detector) takeState(imgs []Image, details []*Detail, out []Verdict, events *obs.Logger) *checkState {
	st, ok := d.states.Get()
	if !ok {
		st = &checkState{}
	}
	st.layers, st.imgs, st.details, st.out, st.events = d.val.LayerIdx, imgs, details, out, events
	return st
}

// Input points the worker's header at image i's pixels.
func (st *checkState) Input(i int, hdr *tensor.Tensor) *tensor.Tensor {
	im := st.imgs[i]
	hdr.Shape = append(hdr.Shape[:0], im.Channels, im.Height, im.Width)
	hdr.Data = im.Pixels
	return hdr
}

// Emit writes image i's verdict, less Valid, which check decides under
// the detector's lock, and its row into the storage of its Detail, if
// it has one.
func (st *checkState) Emit(i int, res *core.Result) {
	st.out[i] = Verdict{
		Label:       res.Label,
		Confidence:  res.Confidence,
		Discrepancy: res.Joint,
		Quarantined: res.NonFinite,
	}
	if i < len(st.details) && st.details[i] != nil {
		dt := st.details[i]
		dt.Layers = st.layers
		dt.PerLayer = append(dt.PerLayer[:0], res.Layer...)
	}
	if res.NonFinite && st.events != nil {
		row := append([]float64(nil), res.Layer...)
		st.mu.Lock()
		if st.held == nil {
			st.held = make([][]float64, len(st.out))
		}
		st.held[i] = row
		st.mu.Unlock()
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
	// it as read-only. A check writes PerLayer into the storage it
	// already holds when that is large enough, so a Detail reused
	// across checks keeps one row and allocates none; copy PerLayer to
	// keep a row past the Detail's next check. PerLayer may carry
	// NaN/±Inf on a quarantined verdict; sanitize before JSON-encoding.
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

// CheckBatchDetailed is CheckBatch with per-image diagnostics, appending
// the verdicts to dst and returning the extended slice (dst unchanged
// on error), so a caller that checks batch after batch can reuse one
// verdict buffer. details may be nil, shorter than imgs, or hold nil
// entries — only images with a non-nil *Detail collect diagnostics,
// and only those with Timed set pay for stage clock reads. Verdicts do
// not depend on dst, details or the worker count; CheckBatch is
// CheckBatchDetailed(nil, imgs, nil).
func (d *Detector) CheckBatchDetailed(dst []Verdict, imgs []Image, details []*Detail) ([]Verdict, error) {
	if err := d.validateAll(imgs); err != nil {
		return dst, err
	}
	n := len(dst)
	dst = slices.Grow(dst, len(imgs))[:n+len(imgs)]
	d.check(imgs, details, dst[n:])
	return dst, nil
}

// check is the one check body, the only place ε is compared and
// statistics are recorded. Scoring fans validated imgs across the
// worker pool, one arena and one input header per worker for the
// whole batch, and writes each verdict straight into out and each row
// into its Detail's own storage, so a warm call allocates nothing on a
// single worker and only a constant per batch on several. Only Timed
// details get a ScoreTimings. The statistics are then updated once, in
// input order, so Stats afterwards is identical to a sequence of
// one-image checks. With telemetry enabled each verdict observes the
// batch's amortized per-image latency (elapsed / batch size); per-image
// score latency comes from the validator's own MetricScoreLatency
// histogram. Quarantined verdicts then go to the event log, in input
// order, each with an owned copy of its per-layer row.
func (d *Detector) check(imgs []Image, details []*Detail, out []Verdict) {
	details = details[:min(len(details), len(imgs))]
	var tms []*core.ScoreTimings
	for i, dt := range details {
		if dt != nil && dt.Timed {
			if tms == nil {
				tms = make([]*core.ScoreTimings, len(details))
			}
			tms[i] = &core.ScoreTimings{}
		}
	}
	tel := d.tel.Load()
	var t0 time.Time
	if tel != nil {
		t0 = time.Now()
	}
	events := d.events.Load()
	st := d.takeState(imgs, details, out, events)
	d.val.ScoreEach(d.net, len(out), d.workerBound(), st, tms)
	held := st.held
	d.states.Put(st)
	for i, tm := range tms {
		if tm != nil {
			details[i].Forward, details[i].LayerTimes = tm.Forward, tm.Layers
		}
	}
	d.mu.Lock()
	for i := range out {
		v := &out[i]
		v.Valid = !v.Quarantined && v.Discrepancy < d.epsilon
		d.record(v.Label, v.Valid)
	}
	d.mu.Unlock()
	if tel != nil && len(out) > 0 {
		perImage := time.Since(t0).Seconds() / float64(len(out))
		for _, v := range out {
			tel.verdictLatency.Observe(perImage)
			tel.observe(v)
		}
	}
	for i, row := range held {
		if row != nil {
			d.emitQuarantine(events, out[i], row)
		}
	}
}

// record folds one verdict into the lifetime statistics. Callers hold
// d.mu.
func (d *Detector) record(label int, valid bool) {
	d.checked++
	d.classChecked[label]++
	if !valid {
		d.flagged++
		d.classFlagged[label]++
	}
	d.recent[d.next] = !valid
	d.next = (d.next + 1) % len(d.recent)
	if d.next == 0 {
		d.filled = true
	}
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
func (d *Detector) SetWorkers(n int) {
	d.mu.Lock()
	d.workers = n
	d.mu.Unlock()
}

// workerBound returns the bound SetWorkers stored.
func (d *Detector) workerBound() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.workers
}

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
	return d.CheckBatchDetailed(nil, imgs, nil)
}

// Stats reports how many inputs were checked and flagged since the
// detector was assembled, plus the alarm rate over the most recent
// inputs — a drift signal for fail-safe supervisors. Until 50 inputs
// have been checked, recentAlarmRate is computed over only the inputs
// seen so far (a partially filled window) and is correspondingly
// noisy; StatsDetail exposes the fill level to gate on. With zero
// checks the rate is 0.
func (d *Detector) Stats() (checked, flagged int, recentAlarmRate float64) {
	s := d.StatsDetail()
	return s.Checked, s.Flagged, s.RecentAlarmRate
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
	d.mu.Lock()
	defer d.mu.Unlock()
	n := d.next
	if d.filled {
		n = len(d.recent)
	}
	alarms := 0
	for _, flagged := range d.recent[:n] {
		if flagged {
			alarms++
		}
	}
	rate := 0.0
	if n > 0 {
		rate = float64(alarms) / float64(n)
	}
	per := make([]ClassStats, len(d.classChecked))
	for k := range per {
		per[k] = ClassStats{Checked: d.classChecked[k], Flagged: d.classFlagged[k]}
	}
	return StatsDetail{
		Checked:         d.checked,
		Flagged:         d.flagged,
		RecentAlarmRate: rate,
		RecentWindow:    len(d.recent),
		RecentFill:      n,
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
