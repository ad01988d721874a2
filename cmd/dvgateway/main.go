// Command dvgateway fronts a fleet of dvserve replicas — the
// horizontal-scale entry point of the serving subsystem:
//
//	dvgateway -addr :8080 \
//	  -replica 127.0.0.1:8081=replica1/validator.dvart \
//	  -replica 127.0.0.2:8082=replica2/validator.dvart
//
// POST /v1/check and /v1/batch are routed across the replicas by
// rendezvous hashing (keyed on X-DV-Trace-Id, else the body hash) with
// a least-loaded fallback, so a fixed key always lands on the same
// replica while any replica-set change only remaps the keys that must
// move. Each replica is health-checked through /readyz on a jittered
// interval; failing replicas degrade, a failure streak drains them out
// of rotation, and capped-exponential re-probes reinstate them after a
// success streak. Connect failures and replica-side 500/502s retry once
// on a different replica, spending a retry budget earned by successful
// requests; replica 429/503 backpressure passes through with a unified
// Retry-After header.
//
// POST /admin/rollout {"artifact": "staged.dvart"} pushes a new
// validator artifact across the fleet one replica at a time, verifying
// through /readyz that each replica's validator SHA-256 converges on
// the staged payload checksum; a reload-failure streak halts the
// rollout and rolls already-switched replicas back to the prior
// artifact. GET /admin/replicas reports per-replica health, load, and
// artifact identity; -metrics-addr serves the dv_gw_* instruments.
//
// Observability: -trace-sample records gateway hop-span trees; GET
// /debug/dv/trace/{id} stitches the gateway's spans with the replica's
// own span tree for the same X-DV-Trace-Id into one merged tree
// (degrading to an explicitly marked partial tree when the replica is
// unreachable). GET /debug/dv/fleet merges every replica's /readyz into
// one triage view and GET /debug/dv/flight merges their flight
// recorders under the shared filters plus a gateway-only ?replica=
// axis. -slo turns on the burn-rate engine over the gateway's own
// availability, passthrough, bad-gateway, and route-latency objectives
// (GET /debug/dv/slo; breach events cross-link offending trace IDs).
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
	"strings"
	"syscall"
	"time"

	"deepvalidation/internal/gateway"
	"deepvalidation/internal/obs"
	"deepvalidation/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dvgateway:", err)
		os.Exit(1)
	}
}

// parseReplica parses one -replica value: addr[=validatorPath], with an
// optional name@ prefix (the rendezvous identity; defaults to addr).
func parseReplica(v string) (gateway.ReplicaSpec, error) {
	spec := gateway.ReplicaSpec{}
	if name, rest, ok := strings.Cut(v, "@"); ok {
		spec.Name, v = name, rest
	}
	addr, path, _ := strings.Cut(v, "=")
	if addr == "" {
		return spec, fmt.Errorf("replica %q: empty address (want addr[=validatorPath])", v)
	}
	spec.Addr = addr
	spec.ValidatorPath = path
	return spec, nil
}

func run() error {
	var replicas []gateway.ReplicaSpec
	flag.Func("replica", "one dvserve replica as [name@]addr[=validatorPath]; repeatable. The validator path is the on-disk artifact a staged rollout replaces (same host or shared filesystem)", func(v string) error {
		spec, err := parseReplica(v)
		if err != nil {
			return err
		}
		replicas = append(replicas, spec)
		return nil
	})
	var (
		addr        = flag.String("addr", ":8080", `gateway address (e.g. ":8080" or "127.0.0.1:0")`)
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /debug/vars, and /debug/pprof on this address (empty disables)")

		probeInterval = flag.Duration("probe-interval", time.Second, "replica /readyz probe cadence (jittered)")
		probeTimeout  = flag.Duration("probe-timeout", 2*time.Second, "one probe's deadline")
		drainAfter    = flag.Int("drain-after", 3, "consecutive health failures before a replica drains out of rotation")
		reinstate     = flag.Int("reinstate-after", 2, "consecutive probe successes before a drained replica rejoins")
		reprobeBack   = flag.Duration("reprobe-backoff", 500*time.Millisecond, "initial re-probe delay for drained replicas (doubles per failure)")
		reprobeCap    = flag.Duration("reprobe-backoff-cap", 15*time.Second, "re-probe delay ceiling")

		maxInflight = flag.Int("max-inflight", 64, "per-replica in-flight request cap; beyond it routing falls to the least-loaded replica, then sheds 429")
		maxBody     = flag.Int64("max-body", 8<<20, "request body byte cap (413 beyond)")
		proxyTO     = flag.Duration("proxy-timeout", 30*time.Second, "one deadline for a proxied request's whole route, retries included")
		retryAfter  = flag.Duration("retry-after", time.Second, "Retry-After hint on gateway-origin 429/503 and unlabeled replica backpressure")
		maxRetries  = flag.Int("max-retries", 1, "re-route attempts per request after connect failure or replica 500/502")
		budgetRatio = flag.Float64("retry-budget", 0.1, "retry-budget earn rate: tokens per successful request (bounds retry amplification)")

		reloadRetries = flag.Int("rollout-reload-retries", 3, "per-replica /v1/reload attempts during a rollout before it halts")

		traceSample = flag.Float64("trace-sample", 0, "gateway hop-span trace head-sampling rate in [0,1]; 0 disables tracing (X-DV-Trace-Id headers are always traced when > 0)")
		traceStore  = flag.Int("trace-store", 256, "retained gateway traces for /debug/dv/trace/{id}")

		sloOn       = flag.Bool("slo", false, "evaluate gateway SLO burn rates (/debug/dv/slo, dv_slo_* metrics, breach events)")
		sloAvail    = flag.Float64("slo-availability", 0.999, "availability objective: goal fraction of requests not shed at capacity or refused unroutable")
		sloPassGoal = flag.Float64("slo-passthrough-goal", 0.99, "passthrough objective: goal fraction of requests not answered with relayed replica 429/503 backpressure")
		sloBGGoal   = flag.Float64("slo-bad-gateway-goal", 0.999, "bad-gateway objective: goal fraction of requests not answered 502 (or a relayed replica 500/502)")
		sloLatTgt   = flag.Duration("slo-latency-target", 250*time.Millisecond, "route-latency objective target, end to end through the gateway")
		sloLatGoal  = flag.Float64("slo-latency-goal", 0.99, "route-latency objective: goal fraction of routed requests under -slo-latency-target")
		sloInterval = flag.Duration("slo-interval", 0, "burn-rate evaluation cadence (0: the engine default)")
		sloBurn     = flag.Float64("slo-burn", 0, "burn-rate breach threshold sustained on every window (0: the engine default 14.4)")
	)
	logOpts := obs.AddLogFlags(flag.CommandLine)
	flag.Parse()
	if len(replicas) == 0 {
		return errors.New("need at least one -replica addr[=validatorPath]")
	}

	var reg *telemetry.Registry
	if *metricsAddr != "" || *sloOn {
		// The SLO engine differences the dv_gw_* instruments, so -slo
		// forces a registry even without a metrics listener.
		reg = telemetry.New()
	}
	events, err := logOpts.Build(reg)
	if err != nil {
		return err
	}
	defer func() { _ = events.Close() }()
	var rt *obs.Runtime
	if reg != nil {
		rt = obs.NewRuntime(reg, map[string]string{"component": "dvgateway"})
		rt.Start(0)
		defer rt.Stop()
	}

	gw, err := gateway.New(gateway.Config{
		Replicas:          replicas,
		ProbeInterval:     *probeInterval,
		ProbeTimeout:      *probeTimeout,
		DrainAfter:        *drainAfter,
		ReinstateAfter:    *reinstate,
		ReprobeBackoff:    *reprobeBack,
		ReprobeBackoffCap: *reprobeCap,
		MaxInflight:       *maxInflight,
		MaxBodyBytes:      *maxBody,
		ProxyTimeout:      *proxyTO,
		RetryAfter:        *retryAfter,
		MaxRetries:        *maxRetries,
		RetryBudgetRatio:  *budgetRatio,
		ReloadRetries:     *reloadRetries,
		Registry:          reg,
		Events:            events,
		TraceSample:       *traceSample,
		TraceStore:        *traceStore,
		SLO: gateway.SLOOptions{
			SLOOptions: obs.SLOOptions{
				Enabled:       *sloOn,
				Availability:  *sloAvail,
				LatencyTarget: *sloLatTgt,
				LatencyGoal:   *sloLatGoal,
				Interval:      *sloInterval,
				Burn:          *sloBurn,
			},
			PassthroughGoal: *sloPassGoal,
			BadGatewayGoal:  *sloBGGoal,
		},
	})
	if err != nil {
		return err
	}
	defer gw.Close()
	// Seed the fleet view before taking traffic so /admin/replicas and
	// rollout preconditions reflect reality from the first request.
	gw.ProbeAll()

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
	hs := &http.Server{Handler: gw.Handler(), ReadHeaderTimeout: 5 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "dvgateway: serving /v1/check, /v1/batch, /admin/rollout, /admin/replicas, /healthz, /readyz, /debug/dv/{trace,fleet,flight,events,slo} on http://%s\n", ln.Addr())
	fmt.Fprintf(os.Stderr, "dvgateway: ready (%d replicas, %d in rotation, probe-interval %v, drain-after %d, max-inflight %d, trace-sample %g, slo %v)\n",
		len(replicas), gw.InRotation(), *probeInterval, *drainAfter, *maxInflight, *traceSample, *sloOn)

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigs:
		fmt.Fprintf(os.Stderr, "dvgateway: %v — shutting down\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := hs.Shutdown(ctx)
		cancel()
		gw.Close()
		if err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		fmt.Fprintln(os.Stderr, "dvgateway: drained cleanly")
		return nil
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}
