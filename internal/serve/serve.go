// Package serve is the online serving subsystem: an HTTP/JSON front
// end that validates live inference traffic with a Deep Validation
// detector — the deployment mode the paper motivates with its
// camera-monitor scenario (Section I), where a fail-safe supervisor
// must flag corner-case inputs as they arrive.
//
// The core of the package is a micro-batcher. Requests admitted
// through a bounded queue wait there for a free worker of a bounded
// pool; once one frees, the batcher hands it everything queued, up to
// Config.MaxBatch, as one Detector.CheckBatch call. An idle server
// scores a lone request at once, and under load batches fill from the
// queue, so serving throughput rides the parallel scoring pipeline
// instead of paying per-request scoring cost, while verdicts stay
// bit-identical to sequential Detector.Check calls.
//
// Robustness properties, in order of importance:
//
//   - Bounded memory: the admission queue sheds load with 429 +
//     Retry-After once Config.QueueDepth requests are waiting, and
//     request bodies are capped at Config.MaxBodyBytes (413 beyond).
//   - Bounded latency: every request carries a deadline
//     (Config.RequestTimeout) in its request record; requests whose
//     deadline passes, or whose client goes away, before a verdict is
//     produced get 504 and are skipped by the batcher.
//   - Graceful drain: Drain stops admission, lets in-flight requests
//     finish on the still-running batcher, then stops it — no verdict
//     in flight is lost on SIGTERM.
//   - Zero-downtime reload: the detector sits behind an atomic
//     deepvalidation.Handle; Reload swaps in a freshly loaded
//     model+validator pair (carrying the live ε across) while checks
//     already running finish on the detector they started with.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"deepvalidation"
	"deepvalidation/internal/core"
	"deepvalidation/internal/faultinject"
	"deepvalidation/internal/freelist"
	"deepvalidation/internal/obs"
	"deepvalidation/internal/telemetry"
	"deepvalidation/internal/trace"
)

// Metric names for the serving instruments, following the repository's
// Prometheus conventions (dv_ prefix, _total counters, _seconds
// timings). Endpoint-scoped families carry an endpoint label.
const (
	// MetricQueueDepth gauges the number of requests currently waiting
	// in the admission queue (shedding begins at Config.QueueDepth).
	MetricQueueDepth = "dv_serve_queue_depth"
	// MetricBatchSize histograms how many requests each dispatched
	// micro-batch carried — the batcher's effectiveness signal.
	MetricBatchSize = "dv_serve_batch_size"
	// MetricRequestLatency is the end-to-end handler latency
	// (decode + queue wait + scoring + encode), labeled by endpoint.
	MetricRequestLatency = "dv_serve_request_latency_seconds"
	// MetricRequests counts handled requests, labeled by endpoint.
	MetricRequests = "dv_serve_requests_total"
	// MetricShed counts requests rejected with 429 by the full queue.
	MetricShed = "dv_serve_shed_total"
	// MetricDeadline counts requests whose deadline expired before a
	// verdict was produced (504).
	MetricDeadline = "dv_serve_deadline_expired_total"
	// MetricReload counts successful detector hot-swaps.
	MetricReload = "dv_serve_reload_total"
	// MetricReloadFailed counts rejected hot-swaps (loader errors,
	// corrupt or incompatible artifacts). Every failure leaves the
	// previous detector serving.
	MetricReloadFailed = "dv_serve_reload_failed_total"
	// MetricReloadFailStreak gauges the consecutive reload failures
	// since the last success; /readyz degrades once it reaches
	// Config.ReloadMaxFailures.
	MetricReloadFailStreak = "dv_serve_reload_fail_streak"
)

// BatchSizeBuckets cover micro-batch sizes from singletons to the
// largest sensible MaxBatch.
var BatchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128}

// Config tunes a Server. The zero value serves with the documented
// defaults.
type Config struct {
	// MaxBatch caps how many requests one micro-batch may carry
	// (default 32).
	MaxBatch int
	// QueueDepth bounds the admission queue; requests beyond it are
	// shed with 429 (default 256).
	QueueDepth int
	// Workers bounds how many micro-batches are scored concurrently
	// (default 2). Each batch additionally fans across the detector's
	// own CheckBatch worker pool.
	Workers int
	// MaxBodyBytes caps request bodies; larger ones get 413
	// (default 8 MiB).
	MaxBodyBytes int64
	// RequestTimeout is the per-request deadline; requests that cannot
	// be answered in time get 504 (default 30s).
	RequestTimeout time.Duration
	// RetryAfter is advertised in the Retry-After header of 429
	// responses (default 1s, rounded up to whole seconds).
	RetryAfter time.Duration
	// Loader, when non-nil, enables POST /v1/reload and Reload: it
	// returns a freshly loaded detector to swap in. The server carries
	// the live ε across the swap, so loaders should not calibrate.
	Loader func() (*deepvalidation.Detector, error)
	// ReloadMaxFailures is how many consecutive reload failures flip
	// /readyz to degraded (default 3). The server keeps answering
	// checks on the last good detector either way; degradation is the
	// operator signal that the artifact pipeline is broken.
	ReloadMaxFailures int
	// ReloadRetries bounds the attempts of ReloadWithBackoff, the
	// SIGHUP-driven reload path (default 3).
	ReloadRetries int
	// ReloadBackoff is the initial retry delay of ReloadWithBackoff,
	// doubling per failure up to ReloadBackoffCap (defaults 500ms and
	// 10s).
	ReloadBackoff    time.Duration
	ReloadBackoffCap time.Duration
	// Registry, when non-nil, receives the serving metrics and the
	// detector's own instruments (verdict counters, discrepancy and
	// latency histograms). Nil disables collection at zero cost.
	Registry *telemetry.Registry
	// TraceSample enables per-verdict tracing: the head-sampling rate
	// in (0, 1]. Client-supplied X-DV-Trace-Id headers are always
	// traced when sampling is on; generated IDs are kept at this rate
	// (deterministically, by ID hash). 0 — the default — disables
	// tracing entirely: no IDs, no spans, no per-request allocations.
	TraceSample float64
	// TraceStore bounds the ring of retained sampled traces served on
	// /debug/dv/trace/{id} (default 256).
	TraceStore int
	// FlightSize bounds the flight recorder of recent verdicts served
	// on /debug/dv/flight. 0 means the default (256); negative disables
	// the recorder.
	FlightSize int
	// DriftWindow sizes the sliding window the drift watch compares
	// against the validator's fit-time reference. 0 means the default
	// (trace.DefaultDriftWindow); negative disables the watch. A
	// detector without a fit-time reference (legacy artifact) degrades
	// to drift-disabled regardless.
	DriftWindow int
	// DriftThreshold is the per-layer quantile-shift score at which
	// dv_drift_alarm raises (0 means trace.DefaultDriftThreshold).
	DriftThreshold float64
	// Events, when non-nil, receives one wide event per request
	// outcome, reload attempt, drift-alarm transition, quarantined
	// verdict, and SLO breach transition, and is served on
	// GET /debug/dv/events. Nil disables event emission entirely; the
	// hot path then builds nothing.
	Events *obs.Logger
	// SLO configures the burn-rate engine over the serving objectives.
	// The zero value is disabled.
	SLO SLOOptions
}

// SLOOptions declares the serving objectives the SLO engine evaluates
// as multi-window burn rates (see internal/obs). Availability counts
// shedding (429) and deadline expiry (504) as bad; the latency
// objective counts single-check requests. Zero-value fields take the
// documented defaults when Enabled.
type SLOOptions struct {
	obs.SLOOptions
	// QuarantineGoal is the goal fraction of verdicts not quarantined
	// by non-finite numerics; default 0.999.
	QuarantineGoal float64
}

// defaults fills unset fields in place.
func (c *Config) defaults() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.ReloadMaxFailures <= 0 {
		c.ReloadMaxFailures = 3
	}
	if c.ReloadRetries <= 0 {
		c.ReloadRetries = 3
	}
	if c.ReloadBackoff <= 0 {
		c.ReloadBackoff = 500 * time.Millisecond
	}
	if c.ReloadBackoffCap <= 0 {
		c.ReloadBackoffCap = 10 * time.Second
	}
	if c.FlightSize == 0 {
		c.FlightSize = 256
	}
	c.SLO.Defaults()
	c.SLO.QuarantineGoal = obs.Goal(c.SLO.QuarantineGoal, 0.999)
}

// Server is the serving subsystem: admission queue, micro-batcher,
// worker pool, and HTTP handlers. Construct with New, mount Handler on
// an http.Server, and shut down with Drain (or Close when no HTTP
// server is involved).
type Server struct {
	cfg    Config
	handle *deepvalidation.Handle

	queue chan *pending
	depth atomic.Int64   // admitted but not yet dequeued; bounds the queue
	pulls atomic.Int64   // requests the batcher has dequeued (test sync point)
	slots chan *batchBuf // free dispatch worker slots; see claim
	work  chan *batchBuf // formed batches, to the dispatch workers
	stop  chan struct{}
	wg    sync.WaitGroup // the batcher and dispatch worker goroutines

	pixels   *pixelFree               // decoded pixel slices for reuse; see releasePixels
	requests *freelist.List[*request] // request records for reuse; see release
	streams  *freelist.List[*stream]  // decode windows for reuse; see newStreamFree

	ready     atomic.Bool
	draining  atomic.Bool
	closed    atomic.Bool // Close is permanent; SetDrain(false) must not undo it
	closeOnce sync.Once

	reloadMu   sync.Mutex   // serializes Reload swaps
	failStreak atomic.Int64 // consecutive reload failures since the last success

	// buildInfo is the dv_build_info series naming the serving
	// detector's artifacts (see publishBuildInfo); guarded by reloadMu.
	buildInfo string

	// Request-scoped observability: the plane's Recent ring is the
	// flight recorder. Every part is nil when disabled and nil-safe, so
	// the disabled path allocates nothing.
	plane  obs.Plane
	drift  atomic.Pointer[trace.DriftWatch] // rebuilt on hot reload
	events *obs.Logger                      // nil disables wide events

	// Instrument handles resolved once at New; all nil-safe.
	queueDepth  *telemetry.Gauge
	batchSize   *telemetry.Histogram
	latCheck    *telemetry.Histogram
	latBatch    *telemetry.Histogram
	reqCheck    *telemetry.Counter
	reqBatch    *telemetry.Counter
	shed        *telemetry.Counter
	deadlines   *telemetry.Counter
	reloads     *telemetry.Counter
	reloadFails *telemetry.Counter
	streakGauge *telemetry.Gauge
}

// New builds a server around the handle's detector, warms it (one
// throwaway check so the first request doesn't pay lazy-allocation
// cost), wires telemetry, and starts the batcher. The server is ready
// as soon as New returns.
func New(h *deepvalidation.Handle, cfg Config) (*Server, error) {
	if h == nil || h.Get() == nil {
		return nil, errors.New("serve: need a handle holding a detector")
	}
	cfg.defaults()
	reg := cfg.Registry
	s := &Server{
		cfg:      cfg,
		handle:   h,
		queue:    make(chan *pending, cfg.QueueDepth),
		slots:    newSlots(cfg.Workers, cfg.MaxBatch),
		work:     make(chan *batchBuf, cfg.Workers),
		stop:     make(chan struct{}),
		pixels:   newPixelFree(cfg.Workers * cfg.MaxBatch),
		requests: newRequestFree(cfg.Workers * cfg.MaxBatch),
		streams:  newStreamFree(cfg.Workers * cfg.MaxBatch),
		events:   cfg.Events,

		queueDepth:  reg.Gauge(MetricQueueDepth),
		batchSize:   reg.Histogram(MetricBatchSize, BatchSizeBuckets),
		latCheck:    reg.Histogram(telemetry.Label(MetricRequestLatency, "endpoint", "check"), telemetry.DefLatencyBuckets),
		latBatch:    reg.Histogram(telemetry.Label(MetricRequestLatency, "endpoint", "batch"), telemetry.DefLatencyBuckets),
		reqCheck:    reg.Counter(telemetry.Label(MetricRequests, "endpoint", "check")),
		reqBatch:    reg.Counter(telemetry.Label(MetricRequests, "endpoint", "batch")),
		shed:        reg.Counter(MetricShed),
		deadlines:   reg.Counter(MetricDeadline),
		reloads:     reg.Counter(MetricReload),
		reloadFails: reg.Counter(MetricReloadFailed),
		streakGauge: reg.Gauge(MetricReloadFailStreak),
	}
	// Warm before attaching telemetry so the throwaway verdict doesn't
	// pollute the counters.
	if err := Warm(h.Get(), cfg.Workers); err != nil {
		return nil, fmt.Errorf("serve: warming detector: %w", err)
	}
	h.Get().AttachTelemetry(reg)
	h.Get().AttachEvents(cfg.Events)
	s.publishBuildInfo()
	s.rebuildDrift(h.Get())
	s.plane = obs.NewPlane(obs.PlaneConfig{
		TraceSample: cfg.TraceSample,
		TraceStore:  cfg.TraceStore,
		Recent:      cfg.FlightSize, // negative disables the recorder
		Registry:    reg,
		Events:      cfg.Events,
		SLO:         cfg.SLO.SLOOptions,
		Objectives:  s.objectives,
	})
	s.plane.SLO.Start()
	s.ready.Store(true)
	s.wg.Add(1 + cfg.Workers)
	go s.runBatcher()
	for range cfg.Workers {
		go s.runWorker()
	}
	s.events.Emit(obs.Event{
		Type: obs.TypeLifecycle, Level: obs.LevelInfo, Msg: "server ready",
		Extra: map[string]any{"workers": cfg.Workers, "max_batch": cfg.MaxBatch, "queue_depth": cfg.QueueDepth},
	})
	return s, nil
}

// objectives declares the serving objectives the plane's burn-rate
// engine evaluates. All sources difference cumulative counters already
// maintained by the request path, so evaluation costs nothing per
// request; breach evidence comes from the flight recorder.
func (s *Server) objectives() []obs.Objective {
	o := s.cfg.SLO
	reg := s.cfg.Registry
	// The quarantine objective reads the detector's own counters. They
	// live in the shared registry, so the handles survive hot reloads.
	checked := reg.Counter(core.MetricChecked)
	quarantined := reg.Counter(core.MetricQuarantined)
	target := o.LatencyTarget.Seconds()
	return []obs.Objective{
		{
			Name:        "availability",
			Description: fmt.Sprintf("fraction of requests answered without shedding or deadline expiry (goal %g)", o.Availability),
			Goal:        o.Availability,
			Source: func() (float64, float64) {
				bad := float64(s.shed.Value() + s.deadlines.Value())
				tot := float64(s.reqCheck.Value() + s.reqBatch.Value())
				return bad, tot
			},
			Outcomes: []string{trace.OutcomeShed, trace.OutcomeDeadline},
		},
		{
			Name:        "latency",
			Description: fmt.Sprintf("fraction of /v1/check requests under %v (goal %g)", o.LatencyTarget, o.LatencyGoal),
			Goal:        o.LatencyGoal,
			Source: func() (float64, float64) {
				return float64(s.latCheck.CountAbove(target)), float64(s.latCheck.Count())
			},
			Endpoint:   "check",
			SlowerThan: target,
		},
		{
			Name:        "quarantine",
			Description: fmt.Sprintf("fraction of verdicts not quarantined by non-finite numerics (goal %g)", o.QuarantineGoal),
			Goal:        o.QuarantineGoal,
			Source: func() (float64, float64) {
				return float64(quarantined.Value()), float64(checked.Value())
			},
			Outcomes: []string{trace.OutcomeQuarantined},
		},
	}
}

// Warm forces the detector's lazy allocations before live traffic
// arrives: one throwaway CheckBatch of max(width, 1) zero images on the
// detector's own worker bound, so each scoring goroutine of that call
// takes, and therefore builds, a scoring state (forward-pass buffers,
// plus im2col column scratch for convolutions whose stride is not 1)
// and leaves it on the validator's free list for the first live batch.
// That is one batch's states, not every concurrent worker's: at
// GOMAXPROCS 2, dvserve's two dispatch workers each fan a micro-batch
// across two scoring goroutines and hold four states between them,
// while Warm builds at most two. The other two (about 0.9 MB of arenas
// at 28×28 inputs) are built during the first concurrent burst.
// Warming them as well would only add resident memory to a replica
// whose batches never overlap. Support vectors need no warming:
// core.DecodeValidator flattens them when the validator loads. The
// throwaway verdicts land in the detector's Stats, but not in telemetry
// when called before AttachTelemetry, as New and reloads do.
func Warm(det *deepvalidation.Detector, width int) error {
	width = max(width, 1)
	c, h, w := det.InputShape()
	if c <= 0 || h <= 0 || w <= 0 {
		return fmt.Errorf("serve: detector reports input shape (%d,%d,%d)", c, h, w)
	}
	imgs := make([]deepvalidation.Image, width)
	for i := range imgs {
		imgs[i] = deepvalidation.Image{Channels: c, Height: h, Width: w, Pixels: make([]float64, c*h*w)}
	}
	_, err := det.CheckBatch(imgs)
	return err
}

// Detector returns the currently serving detector.
func (s *Server) Detector() *deepvalidation.Detector { return s.handle.Get() }

// Ready reports whether the server is loaded, warmed, and not
// draining — the /readyz predicate.
func (s *Server) Ready() bool { return s.ready.Load() && !s.draining.Load() }

// QueueLen returns the number of requests admitted but not yet pulled
// by the batcher.
func (s *Server) QueueLen() int { return int(s.depth.Load()) }

// Reload swaps in a freshly loaded detector from Config.Loader with
// zero downtime: the new detector is validated and warmed before the
// atomic swap, the live ε is carried across (Load does not persist
// calibration), and checks already in flight finish on the old
// detector. Returns the ε now serving.
//
// Reload is the validate-before-trust gate of the serving path: a
// loader error (corrupt or incompatible artifacts — Load checksums
// containers and cross-checks the model/validator pair), a geometry
// change that would strand queued requests, or a failed warm-up all
// reject the swap and leave the previous detector serving untouched.
// Each rejection increments dv_serve_reload_failed_total and the
// consecutive-failure streak; ReloadMaxFailures consecutive rejections
// flip /readyz to degraded until a reload succeeds.
func (s *Server) Reload() (epsilon float64, err error) {
	if s.cfg.Loader == nil {
		return 0, errors.New("serve: reload not configured (no Loader)")
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	start := time.Now()
	eps, err := s.tryReload()
	// Both outcomes' events carry what the attempt took: loading,
	// checking and warming the pair.
	took := time.Since(start).Seconds()
	if err != nil {
		s.reloadFails.Inc()
		streak := s.failStreak.Add(1)
		s.streakGauge.Set(float64(streak))
		s.events.Emit(obs.Event{
			Type: obs.TypeReload, Level: obs.LevelError,
			Msg:        "detector reload rejected; previous detector keeps serving",
			LatencySec: took,
			Err:        err.Error(),
			Extra: map[string]any{
				"fail_streak": streak,
				"degraded":    int(streak) >= s.cfg.ReloadMaxFailures,
			},
		})
		return 0, err
	}
	s.failStreak.Store(0)
	s.streakGauge.Set(0)
	s.reloads.Inc()
	s.events.Emit(obs.Event{
		Type: obs.TypeReload, Level: obs.LevelInfo,
		Msg:        "detector hot-swapped",
		LatencySec: took,
		Extra:      map[string]any{"epsilon": eps},
	})
	return eps, nil
}

// tryReload performs one validated swap attempt; callers hold
// reloadMu and account the outcome.
func (s *Server) tryReload() (float64, error) {
	if err := faultinject.Check(faultinject.PointServeReload); err != nil {
		return 0, fmt.Errorf("serve: reload: %w", err)
	}
	det, err := s.cfg.Loader()
	if err != nil {
		return 0, fmt.Errorf("serve: reload: %w", err)
	}
	old := s.handle.Get()
	oc, oh, ow := old.InputShape()
	if nc, nh, nw := det.InputShape(); nc != oc || nh != oh || nw != ow {
		return 0, fmt.Errorf("serve: reload rejected: input geometry changed from %dx%dx%d to %dx%dx%d (queued requests would be stranded; restart to change geometry)",
			oc, oh, ow, nc, nh, nw)
	}
	eps := old.Epsilon()
	det.SetEpsilon(eps)
	if err := Warm(det, s.cfg.Workers); err != nil {
		return 0, fmt.Errorf("serve: warming reloaded detector: %w", err)
	}
	det.AttachTelemetry(s.cfg.Registry)
	det.AttachEvents(s.events)
	s.handle.Swap(det)
	s.publishBuildInfo()
	// The drift reference travels with the validator, so a reloaded
	// detector gets a fresh watch (and a reloaded legacy artifact
	// degrades the watch to disabled).
	s.rebuildDrift(det)
	return eps, nil
}

// rebuildDrift installs the drift watch for det's fit-time reference,
// or nil when drift watching is off (negative DriftWindow) or the
// detector carries no reference.
func (s *Server) rebuildDrift(det *deepvalidation.Detector) {
	if s.cfg.DriftWindow < 0 {
		s.drift.Store(nil)
		return
	}
	layers, probs, ref, ok := det.DriftReference()
	if !ok {
		s.drift.Store(nil)
		return
	}
	var onAlarm func(trace.DriftStatus)
	if ev := s.events; ev != nil {
		onAlarm = func(st trace.DriftStatus) {
			e := obs.Event{
				Type: obs.TypeDriftAlarm, Level: obs.LevelWarn,
				Msg:      fmt.Sprintf("drift alarm raised: max score %.4f >= threshold %.4f", st.MaxScore, st.Threshold),
				Layers:   st.Layers,
				PerLayer: st.Scores,
				Extra:    map[string]any{"max_score": st.MaxScore, "threshold": st.Threshold, "fill": st.Fill},
			}
			if !st.Alarm {
				e.Level = obs.LevelInfo
				e.Msg = fmt.Sprintf("drift alarm cleared: max score %.4f < threshold %.4f", st.MaxScore, st.Threshold)
			}
			ev.Emit(e)
		}
	}
	s.drift.Store(trace.NewDriftWatch(trace.DriftConfig{
		Layers:    layers,
		Probs:     probs,
		Ref:       ref,
		Window:    s.cfg.DriftWindow,
		Threshold: s.cfg.DriftThreshold,
		Registry:  s.cfg.Registry,
		OnAlarm:   onAlarm,
	}))
}

// publishBuildInfo sets the dv_build_info series labelled with the
// serving detector's artifact checksums, when the server has a
// registry, and zeroes the series it replaces: labels are identity, so
// after a reload the old checksums would otherwise stand at 1 forever.
// Called from New and, under reloadMu, after every successful swap.
func (s *Server) publishBuildInfo() {
	reg := s.cfg.Registry
	if reg == nil {
		return
	}
	m, v := s.ArtifactSHAs()
	name := obs.PublishBuildInfo(reg, map[string]string{"model_sha256": m, "validator_sha256": v})
	if s.buildInfo != "" && s.buildInfo != name {
		reg.Gauge(s.buildInfo).Set(0)
	}
	s.buildInfo = name
}

// ArtifactSHAs returns the SHA-256 payload checksums (model, validator)
// that the serving detector's Load verified, or empty strings for a
// detector from Build or legacy bare-gob artifacts. This is the value a
// fronting gateway compares against a rollout target to verify
// convergence; it describes the serving detector even when the files on
// disk have since been replaced.
func (s *Server) ArtifactSHAs() (modelSHA256, validatorSHA256 string) {
	return s.handle.Get().ArtifactSHAs()
}

// SetDrain toggles the reversible drain switch used by a fronting
// gateway during staged rollouts: while draining, /readyz answers 503
// (so the gateway takes the replica out of rotation) but the server
// keeps answering checks for traffic already routed to it. Unlike
// Drain/Close, SetDrain(false) restores readiness — unless the server
// has been closed, which is permanent.
func (s *Server) SetDrain(enable bool) error {
	if s.closed.Load() && !enable {
		return errors.New("serve: server closed; drain cannot be lifted")
	}
	prev := s.draining.Swap(enable)
	if prev != enable {
		s.events.Emit(obs.Event{
			Type: obs.TypeLifecycle, Level: obs.LevelInfo,
			Msg:   fmt.Sprintf("drain switch set to %v", enable),
			Extra: map[string]any{"draining": enable},
		})
	}
	return nil
}

// DriftStatus returns the current drift-watch summary (Enabled false
// when the watch is off or the detector has no fit-time reference).
func (s *Server) DriftStatus() trace.DriftStatus {
	return s.drift.Load().Status()
}

// SLOStatus returns the SLO engine's last evaluation (Enabled false
// when the engine is off).
func (s *Server) SLOStatus() obs.Status {
	return s.plane.SLO.Status()
}

// SLOTick forces one synchronous SLO evaluation — the deterministic
// hook tests and smoke drivers use instead of waiting out the engine's
// interval. Nil-safe when the engine is disabled.
func (s *Server) SLOTick() { s.plane.SLO.Tick() }

// Events returns the server's wide-event logger (nil when disabled).
func (s *Server) Events() *obs.Logger { return s.events }

// FailStreak returns the consecutive reload failures since the last
// successful swap (or since start).
func (s *Server) FailStreak() int { return int(s.failStreak.Load()) }

// Degraded reports whether the reload path has failed
// Config.ReloadMaxFailures or more consecutive times. A degraded
// server still answers checks — the last good detector keeps serving —
// but /readyz turns 503 so orchestrators stop routing fresh traffic to
// an instance whose artifacts cannot be refreshed.
func (s *Server) Degraded() bool {
	return int(s.failStreak.Load()) >= s.cfg.ReloadMaxFailures
}

// ReloadWithBackoff is the SIGHUP reload path: up to
// Config.ReloadRetries attempts, sleeping between failures with
// exponential backoff from Config.ReloadBackoff capped at
// Config.ReloadBackoffCap. It returns the first success or the last
// failure; ctx cancellation or server shutdown cut the retry loop
// short. Failure accounting (metrics, degradation) happens per
// attempt, inside Reload.
func (s *Server) ReloadWithBackoff(ctx context.Context) (epsilon float64, err error) {
	backoff := s.cfg.ReloadBackoff
	for attempt := 1; ; attempt++ {
		epsilon, err = s.Reload()
		if err == nil || attempt >= s.cfg.ReloadRetries {
			return epsilon, err
		}
		timer := time.NewTimer(backoff)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return 0, fmt.Errorf("serve: reload abandoned after %d attempts: %w (last failure: %v)", attempt, ctx.Err(), err)
		case <-s.stop:
			timer.Stop()
			return 0, fmt.Errorf("serve: server closed during reload retry (last failure: %v)", err)
		}
		if backoff *= 2; backoff > s.cfg.ReloadBackoffCap {
			backoff = s.cfg.ReloadBackoffCap
		}
	}
}

// Close stops the batcher after flushing any queued requests and waits
// for in-flight batches to complete. Admission stops immediately
// (handlers answer 503). When an http.Server fronts this Server,
// prefer Drain, which sequences the HTTP shutdown first.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.closed.Store(true)
		s.draining.Store(true)
		close(s.stop)
		s.plane.SLO.Stop()
		s.events.Emit(obs.Event{Type: obs.TypeLifecycle, Level: obs.LevelInfo, Msg: "server closing"})
	})
	s.wg.Wait()
}
