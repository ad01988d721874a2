// Command dvserve serves a saved model+validator pair as an online
// inference-validation endpoint — the paper's fail-safe deployment
// mode as an HTTP service:
//
//	dvserve -model digits.model -validator digits.validator -eps 1.2 -addr :8080
//
// Requests to POST /v1/check (one image) and POST /v1/batch (many) are
// micro-batched: whenever one of -dispatch-workers frees, everything
// queued, up to -max-batch, is scored as one Detector.CheckBatch call.
// An idle server scores a lone request at once; under load batches
// fill from the queue, so throughput rides the parallel scoring
// pipeline while verdicts stay bit-identical to sequential checks.
// A bounded admission queue sheds overload with 429 + Retry-After,
// request bodies are size-capped, and every request carries a
// deadline.
//
// Operations: SIGTERM/SIGINT drain gracefully (stop admission, flush
// in-flight batches, exit); SIGHUP or POST /v1/reload hot-swap a
// re-fitted model+validator pair from the same paths with zero
// downtime, carrying the live ε across; -metrics-addr serves the
// shared telemetry registry (/metrics, /debug/vars, /debug/pprof/).
//
// Observability: -trace-sample enables per-verdict traces (inject an
// X-DV-Trace-Id header to follow one request; read the span tree back
// on GET /debug/dv/trace/{id}); GET /debug/dv/flight is a bounded
// flight recorder of recent verdicts with per-layer discrepancies
// (-flight sizes it); GET /debug/dv/drift and the dv_drift_* metrics
// compare live per-layer discrepancy quantiles against the fit-time
// reference persisted in the validator (-drift-window, -drift-threshold).
//
// Wide events and SLOs: -log/-log-file emit one structured NDJSON
// event per request outcome, reload, drift-alarm transition, and SLO
// breach (GET /debug/dv/events serves the in-memory ring); -slo turns
// on the multi-window burn-rate engine over availability, latency, and
// quarantine-rate objectives (GET /debug/dv/slo, dv_slo_* metrics, and
// a machine-parseable summary on /readyz). The Go runtime's own health
// (heap, GC pauses, goroutines, scheduling latency) is collected into
// dv_runtime_* alongside a dv_build_info series pinning the binary and
// artifact checksums.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"deepvalidation"
	"deepvalidation/internal/obs"
	"deepvalidation/internal/serve"
	"deepvalidation/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dvserve:", err)
		os.Exit(1)
	}
}

// driftMode summarizes the drift watch for the startup banner.
func driftMode(srv *serve.Server) string {
	if srv.DriftStatus().Enabled {
		return "on"
	}
	return "off (disabled or no fit-time reference in the validator)"
}

func run() error {
	var (
		modelPath   = flag.String("model", "model.gob", "trained model path")
		valPath     = flag.String("validator", "validator.gob", "fitted validator path")
		eps         = flag.Float64("eps", 0, "detection threshold ε (see dvvalidate score); carried across reloads")
		addr        = flag.String("addr", ":8080", `serving address (e.g. ":8080" or "127.0.0.1:0")`)
		metricsAddr = flag.String("metrics-addr", "", `serve /metrics, /debug/vars, and /debug/pprof on this address (empty disables)`)
		maxBatch    = flag.Int("max-batch", 32, "micro-batch size cap")
		queueDepth  = flag.Int("queue-depth", 256, "admission queue bound; beyond it requests shed with 429")
		dispatchers = flag.Int("dispatch-workers", 2, "concurrent micro-batch dispatches")
		workers     = flag.Int("workers", 0, "detector CheckBatch worker bound (0 = GOMAXPROCS, 1 = sequential)")
		maxBody     = flag.Int64("max-body", 8<<20, "request body byte cap (413 beyond)")
		reqTimeout  = flag.Duration("request-timeout", 30*time.Second, "per-request deadline (504 beyond)")
		drainT      = flag.Duration("drain-timeout", 30*time.Second, "SIGTERM drain budget for in-flight requests")
		retryAfter  = flag.Duration("retry-after", time.Second, "Retry-After hint on 429 responses")
		reloadRetry = flag.Int("reload-retries", 3, "SIGHUP reload attempts before giving up")
		reloadBack  = flag.Duration("reload-backoff", 500*time.Millisecond, "initial SIGHUP reload backoff (doubles per attempt)")
		reloadCap   = flag.Duration("reload-backoff-cap", 10*time.Second, "SIGHUP reload backoff ceiling")
		reloadMax   = flag.Int("reload-max-failures", 3, "consecutive reload failures before /readyz reports degraded")

		traceSample = flag.Float64("trace-sample", 0, "per-verdict trace head-sampling rate in [0,1]; 0 disables tracing (X-DV-Trace-Id headers are always traced when > 0)")
		traceStore  = flag.Int("trace-store", 256, "retained sampled traces for /debug/dv/trace/{id}")
		flightSize  = flag.Int("flight", 256, "flight recorder size for /debug/dv/flight (0 disables)")
		driftWindow = flag.Int("drift-window", 512, "drift-watch sliding window over accepted verdicts (0 disables)")
		driftThresh = flag.Float64("drift-threshold", 0.5, "per-layer quantile-shift score that raises dv_drift_alarm")

		sloOn       = flag.Bool("slo", false, "evaluate SLO burn rates (/debug/dv/slo, dv_slo_* metrics, breach events)")
		sloAvail    = flag.Float64("slo-availability", 0.999, "availability objective: goal fraction of requests not shed or expired")
		sloLatTgt   = flag.Duration("slo-latency-target", 250*time.Millisecond, "latency objective target for /v1/check")
		sloLatGoal  = flag.Float64("slo-latency-goal", 0.99, "latency objective: goal fraction of checks under -slo-latency-target")
		sloQuarGoal = flag.Float64("slo-quarantine-goal", 0.999, "quarantine objective: goal fraction of verdicts not quarantined")
		sloInterval = flag.Duration("slo-interval", 0, "burn-rate evaluation cadence (0: the engine default)")
		sloBurn     = flag.Float64("slo-burn", 0, "burn-rate breach threshold sustained on every window (0: the engine default 14.4)")
	)
	logOpts := obs.AddLogFlags(flag.CommandLine)
	flag.Parse()

	load := func() (*deepvalidation.Detector, error) {
		det, err := deepvalidation.Load(*modelPath, *valPath)
		if err != nil {
			return nil, err
		}
		det.SetWorkers(*workers)
		return det, nil
	}
	det, err := load()
	if err != nil {
		return err
	}
	det.SetEpsilon(*eps)
	handle := deepvalidation.NewHandle(det)

	var reg *telemetry.Registry
	if *metricsAddr != "" || *sloOn {
		// The SLO engine differences counters out of the registry, so
		// enabling it forces collection even without a metrics listener.
		reg = telemetry.New()
	}
	events, err := logOpts.Build(reg)
	if err != nil {
		return err
	}
	defer func() { _ = events.Close() }()

	// On the flags, 0 means "off"; in serve.Config, negative disables
	// and 0 means "default".
	flight := *flightSize
	if flight <= 0 {
		flight = -1
	}
	drift := *driftWindow
	if drift <= 0 {
		drift = -1
	}
	srv, err := serve.New(handle, serve.Config{
		MaxBatch:       *maxBatch,
		QueueDepth:     *queueDepth,
		Workers:        *dispatchers,
		MaxBodyBytes:   *maxBody,
		RequestTimeout: *reqTimeout,
		RetryAfter:     *retryAfter,
		Loader:         load,
		Registry:       reg,

		ReloadRetries:     *reloadRetry,
		ReloadBackoff:     *reloadBack,
		ReloadBackoffCap:  *reloadCap,
		ReloadMaxFailures: *reloadMax,

		TraceSample:    *traceSample,
		TraceStore:     *traceStore,
		FlightSize:     flight,
		DriftWindow:    drift,
		DriftThreshold: *driftThresh,

		Events: events,
		SLO: serve.SLOOptions{
			SLOOptions: obs.SLOOptions{
				Enabled:       *sloOn,
				Availability:  *sloAvail,
				LatencyTarget: *sloLatTgt,
				LatencyGoal:   *sloLatGoal,
				Interval:      *sloInterval,
				Burn:          *sloBurn,
			},
			QuarantineGoal: *sloQuarGoal,
		},
	})
	if err != nil {
		return err
	}
	// The runtime collector publishes dv_runtime_* and re-publishes the
	// one dv_build_info series serve.New set from the checksums Load
	// verified; the server moves it to the new checksums on each reload.
	if reg != nil {
		m, v := srv.ArtifactSHAs()
		rt := obs.NewRuntime(reg, map[string]string{"model_sha256": m, "validator_sha256": v})
		rt.Start(0)
		defer rt.Stop()
	}

	if *metricsAddr != "" {
		bound, stopMetrics, err := telemetry.Serve(*metricsAddr, reg)
		if err != nil {
			return err
		}
		defer func() { _ = stopMetrics() }()
		fmt.Fprintf(os.Stderr, "metrics: serving /metrics, /debug/vars, and /debug/pprof/ on http://%s\n", bound)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listening on %s: %w", *addr, err)
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "dvserve: serving /v1/check, /v1/batch, /v1/reload, /healthz, /readyz, /admin/drain, /debug/dv/{trace,flight,drift,events,slo} on http://%s\n", ln.Addr())
	fmt.Fprintf(os.Stderr, "dvserve: ready (eps %.4f, max-batch %d, queue-depth %d, dispatch-workers %d, trace-sample %g, drift %s)\n",
		det.Epsilon(), *maxBatch, *queueDepth, *dispatchers, *traceSample, driftMode(srv))

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	var reloading atomic.Bool // one in-flight SIGHUP reload at a time
	for {
		select {
		case sig := <-sigs:
			if sig == syscall.SIGHUP {
				if !reloading.CompareAndSwap(false, true) {
					fmt.Fprintln(os.Stderr, "dvserve: reload already in progress; ignoring SIGHUP")
					continue
				}
				go func() {
					defer reloading.Store(false)
					// The old detector keeps serving throughout; retries
					// back off so a half-written artifact gets time to land.
					if eps, err := srv.ReloadWithBackoff(context.Background()); err != nil {
						fmt.Fprintf(os.Stderr, "dvserve: reload failed after %d attempts: %v\n", *reloadRetry, err)
					} else {
						fmt.Fprintf(os.Stderr, "dvserve: reloaded %s + %s (eps %.4f)\n", *modelPath, *valPath, eps)
					}
				}()
				continue
			}
			fmt.Fprintf(os.Stderr, "dvserve: %v — draining (budget %v)\n", sig, *drainT)
			events.Emit(obs.Event{
				Type: obs.TypeLifecycle, Level: obs.LevelInfo,
				Msg:   "draining on signal",
				Extra: map[string]any{"signal": sig.String(), "budget": drainT.String()},
			})
			ctx, cancel := context.WithTimeout(context.Background(), *drainT)
			err := srv.Drain(ctx, hs)
			cancel()
			if err != nil {
				return fmt.Errorf("drain: %w", err)
			}
			fmt.Fprintln(os.Stderr, "dvserve: drained cleanly")
			return nil
		case err := <-errc:
			if errors.Is(err, http.ErrServerClosed) {
				return nil
			}
			return err
		}
	}
}
