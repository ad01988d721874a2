// Package gateway is the horizontal-scale front of the serving
// subsystem: one HTTP process that routes /v1/check and /v1/batch
// across N dvserve replicas. The paper frames corner-case detection as
// a fail-safe systems property; at fleet scale the serving layer itself
// becomes part of that property — a replica serving a stale or corrupt
// artifact, or silently dropping traffic, is a corner case the fleet
// must detect and heal. The gateway does that with three mechanisms:
//
//   - Health-checked routing. Requests are placed by rendezvous
//     (highest-random-weight) hashing over the replicas currently in
//     rotation, so a fixed key always lands on the same replica while
//     any replica set change only remaps the keys that must move. Each
//     replica is probed through /readyz on a jittered interval; probe
//     failures degrade it, a failure streak drains it out of rotation,
//     and capped-exponential re-probes reinstate it only after a
//     success streak (internal/gateway/health.go).
//
//   - Per-request robustness. Connect failures and replica-side
//     500/502s are retried once against a different replica, spending a
//     token from a retry budget earned by successful requests — so
//     retries help isolated failures but cannot double traffic during a
//     fleet-wide incident. Replica 429/503 responses pass through with
//     a unified Retry-After header, and per-replica in-flight caps stop
//     one slow replica from absorbing the fleet's queue.
//
//   - Coordinated rollout. POST /admin/rollout stages a new validator
//     artifact onto each replica one at a time, reloading and verifying
//     through /readyz that the replica's validator SHA-256 converged on
//     the staged payload checksum; a reload-failure streak halts the
//     rollout and rolls already-switched replicas back to the prior
//     artifact (internal/gateway/rollout.go).
package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"deepvalidation/internal/faultinject"
	"deepvalidation/internal/freelist"
	"deepvalidation/internal/obs"
	"deepvalidation/internal/serve"
	"deepvalidation/internal/telemetry"
)

// Metric names for the gateway instruments (dv_gw_ prefix). Per-replica
// families carry a replica label.
const (
	// MetricRequests counts requests the gateway accepted for routing,
	// labeled by endpoint (check, batch).
	MetricRequests = "dv_gw_requests_total"
	// MetricReplicaRequests counts requests forwarded to each replica.
	MetricReplicaRequests = "dv_gw_replica_requests_total"
	// MetricRetries counts forwards re-attempted on a second replica
	// after a connect failure or replica-side 500/502.
	MetricRetries = "dv_gw_retries_total"
	// MetricRetryBudgetSpent counts retries denied because the budget
	// was empty — the signal that failures are fleet-wide, not isolated.
	MetricRetryBudgetSpent = "dv_gw_retry_budget_exhausted_total"
	// MetricShed counts requests answered 429 by the gateway itself
	// because every in-rotation replica was at its in-flight cap.
	MetricShed = "dv_gw_shed_total"
	// MetricUnroutable counts requests answered 503 because no replica
	// was in rotation at all.
	MetricUnroutable = "dv_gw_unroutable_total"
	// MetricBadGateway counts requests answered 502 after transport
	// failures exhausted the retry allowance.
	MetricBadGateway = "dv_gw_bad_gateway_total"
	// MetricPassthrough counts replica backpressure responses relayed to
	// the client, labeled by code (429, 503).
	MetricPassthrough = "dv_gw_passthrough_total"
	// MetricProbes counts health probes, labeled by result (ok, fail).
	MetricProbes = "dv_gw_probes_total"
	// MetricReplicaState gauges each replica's health state as its State
	// enum value (0 healthy, 1 degraded, 2 drained, 3 reprobing).
	MetricReplicaState = "dv_gw_replica_state"
	// MetricInflight gauges each replica's in-flight forwarded requests.
	MetricInflight = "dv_gw_inflight"
	// MetricDrains counts replicas taken out of rotation.
	MetricDrains = "dv_gw_drains_total"
	// MetricReinstates counts replicas returned to rotation.
	MetricReinstates = "dv_gw_reinstates_total"
	// MetricRollouts counts staged rollouts completed on every replica.
	MetricRollouts = "dv_gw_rollouts_total"
	// MetricRolloutsFailed counts rollouts halted by a reload-failure
	// streak.
	MetricRolloutsFailed = "dv_gw_rollouts_failed_total"
	// MetricRollbacks counts replicas rolled back to the prior artifact
	// after a halted rollout.
	MetricRollbacks = "dv_gw_rollbacks_total"
	// MetricRouteLatency is the end-to-end routed-request latency
	// histogram, labeled by outcome (ok, retry, shed, passthrough,
	// bad_gateway) — the SLO engine's route-latency and error-rate
	// source.
	MetricRouteLatency = "dv_gw_route_latency_seconds"
)

// ReplicaSpec declares one dvserve replica to front.
type ReplicaSpec struct {
	// Name identifies the replica in metrics, events, and rendezvous
	// hashing; it defaults to Addr. Renaming a replica remaps the keys
	// rendezvous-assigned to it, so keep names stable across restarts.
	Name string
	// Addr is the replica's HTTP listener, host:port.
	Addr string
	// ValidatorPath, when set, is the on-disk validator artifact this
	// replica loads from — the file a staged rollout replaces. The
	// gateway writes it directly, so the fleet model is replicas on the
	// same host (or a shared filesystem). Empty opts the replica out of
	// rollouts; a rollout request then fails its preconditions.
	ValidatorPath string
}

// Config tunes a Gateway. The zero value (plus at least one replica)
// fronts with the documented defaults.
type Config struct {
	// Replicas is the fleet; at least one is required.
	Replicas []ReplicaSpec
	// ProbeInterval is the health-check cadence per replica, jittered
	// ±ProbeJitter to decorrelate probes across replicas and gateways.
	// 0 means the default (1s); negative disables the background prober
	// entirely — tests then drive ProbeAll deterministically.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one /readyz probe (default 2s).
	ProbeTimeout time.Duration
	// ProbeJitter is the fraction of ProbeInterval randomized away
	// (default 0.2, clamped to [0, 1]).
	ProbeJitter float64
	// DrainAfter is the consecutive health-failure streak that drains a
	// replica out of rotation (default 3).
	DrainAfter int
	// ReinstateAfter is the consecutive probe-success streak a drained
	// replica needs to rejoin rotation (default 2).
	ReinstateAfter int
	// ReprobeBackoff and ReprobeBackoffCap bound the capped-exponential
	// re-probe schedule for drained replicas (defaults 500ms and 15s).
	ReprobeBackoff    time.Duration
	ReprobeBackoffCap time.Duration
	// MaxInflight caps concurrently forwarded requests per replica;
	// beyond it routing falls back to the least-loaded replica, and when
	// every replica is at the cap the gateway sheds with 429
	// (default 64).
	MaxInflight int
	// MaxBodyBytes caps request bodies; larger ones get 413
	// (default 8 MiB, matching dvserve).
	MaxBodyBytes int64
	// ProxyTimeout bounds the whole route of one proxied request, from
	// the first forward through every retry, with one deadline
	// (default 30s).
	ProxyTimeout time.Duration
	// RetryAfter is the gateway's own backoff hint: advertised on
	// gateway-origin 429/503 responses and on relayed replica
	// backpressure that carried no Retry-After of its own (default 1s).
	// It is rendered by serve.RetryAfterHeader, the single source of the
	// header format.
	RetryAfter time.Duration
	// MaxRetries bounds per-request re-routes after connect failures or
	// replica-side 500/502 (default 1 — one retry on a second replica).
	MaxRetries int
	// RetryBudgetRatio is the retry-budget earn rate: tokens added per
	// successfully forwarded request (default 0.1, i.e. retries may add
	// at most ~10% traffic). The budget starts full at RetryBudgetCap
	// tokens (default 16) so cold-start failures can still be retried.
	RetryBudgetRatio float64
	RetryBudgetCap   float64
	// ReloadRetries bounds per-replica /v1/reload attempts during a
	// rollout before the replica counts as failed and the rollout halts
	// (default 3).
	ReloadRetries int
	// RolloutVerifyAttempts and RolloutVerifyDelay bound the /readyz
	// convergence poll after each rollout reload (defaults 20 and 50ms).
	RolloutVerifyAttempts int
	RolloutVerifyDelay    time.Duration
	// Registry, when non-nil, receives the dv_gw_* instruments. Nil
	// disables collection at zero cost.
	Registry *telemetry.Registry
	// Events, when non-nil, receives replica-health, rollout, and SLO
	// wide events.
	Events *obs.Logger
	// TraceSample is the fraction of requests recorded as gateway hop
	// span trees (admission → route decision → each retry hop →
	// upstream round-trip) on /debug/dv/trace/{id}. Client-supplied
	// X-DV-Trace-Id headers are always traced; otherwise the gateway
	// mints an ID, head-samples it, and forwards it on every hop so the
	// replica's own span tree shares the identity. 0 disables tracing
	// entirely — no IDs are minted and responses are byte-identical to
	// the untraced gateway.
	TraceSample float64
	// TraceStore bounds the ring of retained gateway traces
	// (default 256).
	TraceStore int
	// SLO declares the gateway's own burn-rate objectives over the
	// dv_gw_* instruments; it also needs Registry. See SLOOptions.
	SLO SLOOptions
}

// defaults fills unset fields in place.
func (c *Config) defaults() {
	if c.ProbeInterval == 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.ProbeJitter == 0 {
		c.ProbeJitter = 0.2
	}
	if c.ProbeJitter < 0 {
		c.ProbeJitter = 0
	}
	if c.ProbeJitter > 1 {
		c.ProbeJitter = 1
	}
	if c.DrainAfter <= 0 {
		c.DrainAfter = 3
	}
	if c.ReinstateAfter <= 0 {
		c.ReinstateAfter = 2
	}
	if c.ReprobeBackoff <= 0 {
		c.ReprobeBackoff = 500 * time.Millisecond
	}
	if c.ReprobeBackoffCap <= 0 {
		c.ReprobeBackoffCap = 15 * time.Second
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 64
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.ProxyTimeout <= 0 {
		c.ProxyTimeout = 30 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	} else if c.MaxRetries == 0 {
		c.MaxRetries = 1
	}
	if c.RetryBudgetRatio <= 0 {
		c.RetryBudgetRatio = 0.1
	}
	if c.RetryBudgetCap <= 0 {
		c.RetryBudgetCap = 16
	}
	if c.ReloadRetries <= 0 {
		c.ReloadRetries = 3
	}
	if c.RolloutVerifyAttempts <= 0 {
		c.RolloutVerifyAttempts = 20
	}
	if c.RolloutVerifyDelay <= 0 {
		c.RolloutVerifyDelay = 50 * time.Millisecond
	}
	c.SLO.Defaults()
	c.SLO.PassthroughGoal = obs.Goal(c.SLO.PassthroughGoal, 0.99)
	c.SLO.BadGatewayGoal = obs.Goal(c.SLO.BadGatewayGoal, 0.999)
}

// replica is the gateway's view of one dvserve instance: its identity,
// its mutex-guarded health machine, and its traffic accounting.
type replica struct {
	name          string
	addr          string
	base          string // "http://" + addr
	validatorPath string
	// checkURL, batchURL and readyzURL are the replica endpoints the
	// gateway calls per request or probe, built once.
	checkURL, batchURL, readyzURL string
	// probes holds the replica's one probe scratch (fetchReadyz).
	probes freelist.List[*probeScratch]

	mu         sync.Mutex
	hm         healthMachine
	lastReadyz serve.ReadyzBody // last parsed /readyz JSON tail (any status)
	lastErr    string           // last probe/transport failure, for /admin/replicas

	inflight atomic.Int64

	routed        *telemetry.Counter
	stateGauge    *telemetry.Gauge
	inflightGauge *telemetry.Gauge
}

// state returns the replica's health state under its lock.
func (r *replica) state() State {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hm.state
}

// validatorSHA returns the validator checksum last seen on the
// replica's /readyz.
func (r *replica) validatorSHA() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastReadyz.ValidatorSHA256
}

// Gateway fronts a replica fleet. Construct with New, mount Handler on
// an http.Server, stop with Close.
type Gateway struct {
	cfg      Config
	replicas []*replica
	// transport carries proxied requests (forward calls it directly);
	// client wraps it for probes, rollouts and debug fetches.
	transport http.RoundTripper
	client    *http.Client

	// exchanges recycles proxied requests' records (body.go).
	exchanges freelist.List[*exchange]

	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once

	budget    retryBudget
	rolloutMu sync.Mutex // one rollout at a time
	events    *obs.Logger

	// plane holds the hop-span sampler and store and the SLO engine.
	// Its Recent ring of route outcomes (trace ID, outcome, latency) is
	// kept solely so SLO breach events can cross-link the offending
	// trace IDs; it is not an endpoint of its own — the gateway's
	// /debug/dv/flight aggregates the replicas' recorders.
	plane obs.Plane

	reqCheck        *telemetry.Counter
	reqBatch        *telemetry.Counter
	retries         *telemetry.Counter
	budgetExhausted *telemetry.Counter
	shed            *telemetry.Counter
	unroutable      *telemetry.Counter
	badGateway      *telemetry.Counter
	pass429         *telemetry.Counter
	pass503         *telemetry.Counter
	probeOK         *telemetry.Counter
	probeFail       *telemetry.Counter
	drains          *telemetry.Counter
	reinstates      *telemetry.Counter
	rollouts        *telemetry.Counter
	rolloutsFailed  *telemetry.Counter
	rollbacks       *telemetry.Counter

	latOK          *telemetry.Histogram
	latRetry       *telemetry.Histogram
	latShed        *telemetry.Histogram
	latPassthrough *telemetry.Histogram
	latBadGateway  *telemetry.Histogram
}

// New builds a gateway over the configured fleet and starts one prober
// goroutine per replica (unless ProbeInterval < 0). Replicas start
// Healthy — optimistic admission means a cold fleet serves immediately,
// and genuinely dead replicas drain within DrainAfter observations.
func New(cfg Config) (*Gateway, error) {
	cfg.defaults()
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("gateway: need at least one replica")
	}
	reg := cfg.Registry
	// dvserve never compresses, and a transport asking for gzip adds an
	// Accept-Encoding header map to every request.
	transport := &http.Transport{
		DialContext:         dialCopyConn,
		MaxIdleConns:        4 * len(cfg.Replicas),
		MaxIdleConnsPerHost: 4,
		IdleConnTimeout:     90 * time.Second,
		DisableCompression:  true,
	}
	g := &Gateway{
		cfg:       cfg,
		stop:      make(chan struct{}),
		events:    cfg.Events,
		transport: transport,
		client:    &http.Client{Transport: transport},
		exchanges: newExchangeFree(),
		budget:    retryBudget{ratio: cfg.RetryBudgetRatio, cap: cfg.RetryBudgetCap, tokens: cfg.RetryBudgetCap},

		reqCheck:        reg.Counter(telemetry.Label(MetricRequests, "endpoint", "check")),
		reqBatch:        reg.Counter(telemetry.Label(MetricRequests, "endpoint", "batch")),
		retries:         reg.Counter(MetricRetries),
		budgetExhausted: reg.Counter(MetricRetryBudgetSpent),
		shed:            reg.Counter(MetricShed),
		unroutable:      reg.Counter(MetricUnroutable),
		badGateway:      reg.Counter(MetricBadGateway),
		pass429:         reg.Counter(telemetry.Label(MetricPassthrough, "code", "429")),
		pass503:         reg.Counter(telemetry.Label(MetricPassthrough, "code", "503")),
		probeOK:         reg.Counter(telemetry.Label(MetricProbes, "result", "ok")),
		probeFail:       reg.Counter(telemetry.Label(MetricProbes, "result", "fail")),
		drains:          reg.Counter(MetricDrains),
		reinstates:      reg.Counter(MetricReinstates),
		rollouts:        reg.Counter(MetricRollouts),
		rolloutsFailed:  reg.Counter(MetricRolloutsFailed),
		rollbacks:       reg.Counter(MetricRollbacks),

		latOK:          reg.Histogram(telemetry.Label(MetricRouteLatency, "outcome", outcomeOK), telemetry.DefLatencyBuckets),
		latRetry:       reg.Histogram(telemetry.Label(MetricRouteLatency, "outcome", outcomeRetry), telemetry.DefLatencyBuckets),
		latShed:        reg.Histogram(telemetry.Label(MetricRouteLatency, "outcome", outcomeShed), telemetry.DefLatencyBuckets),
		latPassthrough: reg.Histogram(telemetry.Label(MetricRouteLatency, "outcome", outcomePassthrough), telemetry.DefLatencyBuckets),
		latBadGateway:  reg.Histogram(telemetry.Label(MetricRouteLatency, "outcome", outcomeBadGateway), telemetry.DefLatencyBuckets),
	}
	seen := make(map[string]bool, len(cfg.Replicas))
	for _, spec := range cfg.Replicas {
		if spec.Addr == "" {
			return nil, errors.New("gateway: replica with empty address")
		}
		name := spec.Name
		if name == "" {
			name = spec.Addr
		}
		if seen[name] {
			return nil, fmt.Errorf("gateway: duplicate replica name %q (rendezvous hashing needs distinct names)", name)
		}
		seen[name] = true
		base := "http://" + spec.Addr
		g.replicas = append(g.replicas, &replica{
			name:          name,
			addr:          spec.Addr,
			base:          base,
			validatorPath: spec.ValidatorPath,
			checkURL:      base + "/v1/check",
			batchURL:      base + "/v1/batch",
			readyzURL:     base + "/readyz",
			probes:        freelist.List[*probeScratch]{Max: 1},
			hm: healthMachine{cfg: healthConfig{
				drainAfter:     cfg.DrainAfter,
				reinstateAfter: cfg.ReinstateAfter,
				backoff:        cfg.ReprobeBackoff,
				backoffCap:     cfg.ReprobeBackoffCap,
			}},
			routed:        reg.Counter(telemetry.Label(MetricReplicaRequests, "replica", name)),
			stateGauge:    reg.Gauge(telemetry.Label(MetricReplicaState, "replica", name)),
			inflightGauge: reg.Gauge(telemetry.Label(MetricInflight, "replica", name)),
		})
	}
	recent := 0 // the ring only serves traced or SLO-evaluated gateways
	if cfg.TraceSample > 0 || cfg.SLO.Enabled {
		recent = recentOutcomes
	}
	g.plane = obs.NewPlane(obs.PlaneConfig{
		TraceSample: cfg.TraceSample,
		TraceStore:  cfg.TraceStore,
		Recent:      recent,
		Registry:    reg,
		Events:      cfg.Events,
		SLO:         cfg.SLO.SLOOptions,
		Objectives:  g.objectives,
	})
	g.plane.SLO.Start()
	if cfg.ProbeInterval > 0 {
		for _, r := range g.replicas {
			g.wg.Add(1)
			go g.probeLoop(r)
		}
	}
	g.events.Emit(obs.Event{
		Type: obs.TypeLifecycle, Level: obs.LevelInfo, Msg: "gateway ready",
		Extra: map[string]any{"replicas": len(g.replicas), "probe_interval": cfg.ProbeInterval.String()},
	})
	return g, nil
}

// Close stops the probers and waits for them. Idempotent.
func (g *Gateway) Close() {
	g.closeOnce.Do(func() {
		close(g.stop)
		g.plane.SLO.Stop()
		g.events.Emit(obs.Event{Type: obs.TypeLifecycle, Level: obs.LevelInfo, Msg: "gateway closing"})
	})
	g.wg.Wait()
}

// probeLoop probes one replica on the jittered interval until Close.
// Each iteration redraws its jitter so replica probes decorrelate over
// time instead of marching in lockstep.
func (g *Gateway) probeLoop(r *replica) {
	defer g.wg.Done()
	for {
		d := g.cfg.ProbeInterval
		if j := g.cfg.ProbeJitter; j > 0 {
			d += time.Duration((rand.Float64()*2 - 1) * j * float64(d))
		}
		t := time.NewTimer(d)
		select {
		case <-g.stop:
			t.Stop()
			return
		case <-t.C:
		}
		g.probeOne(r, false)
	}
}

// ProbeAll force-probes every replica once, synchronously, ignoring the
// re-probe backoff — the deterministic hook tests and smoke drivers use
// instead of waiting out the prober interval.
func (g *Gateway) ProbeAll() {
	for _, r := range g.replicas {
		g.probeOne(r, true)
	}
}

// probeOne runs one health probe against r unless its re-probe backoff
// says not yet (force overrides). The result feeds the health machine.
func (g *Gateway) probeOne(r *replica, force bool) {
	if !force {
		r.mu.Lock()
		due := r.hm.probeDue(time.Now())
		r.mu.Unlock()
		if !due {
			return
		}
	}
	body, err := g.fetchReadyz(r, g.cfg.ProbeTimeout)
	ok := err == nil && body.Status == "ready"
	errStr := ""
	var seen *serve.ReadyzBody
	if err != nil {
		errStr = err.Error()
	} else {
		seen = &body
		if !ok {
			errStr = "replica not ready: " + body.Status
		}
	}
	if ok {
		g.probeOK.Inc()
	} else {
		g.probeFail.Inc()
	}
	g.observe(r, ok, seen, errStr)
}

// endpoint returns the replica URL a proxied endpoint ("check" or
// "batch") forwards to.
func (r *replica) endpoint(name string) string {
	if name == "batch" {
		return r.batchURL
	}
	return r.checkURL
}

// probeScratch is what one /readyz fetch reads into: the body, and the
// document its JSON tail parses into. A replica keeps one, so its
// probes reuse both; a fetch that finds it taken makes its own.
type probeScratch struct {
	buf  []byte
	body serve.ReadyzBody
}

// readyzLimit caps a /readyz body the gateway reads.
const readyzLimit = 1 << 20

// fetchReadyz GETs the replica's /readyz and parses the one-line JSON
// tail (the last non-empty line of the body — serve.ReadyzBody is the
// wire contract). A non-200 status is not an error here: degraded and
// draining replicas still serve a parseable body whose artifact
// checksums the rollout verifier needs; the caller judges readiness
// from Status. The deadline rides on the request's context, so the
// probe shares the gateway's client.
func (g *Gateway) fetchReadyz(r *replica, timeout time.Duration) (serve.ReadyzBody, error) {
	if err := faultinject.Check(faultinject.PointGatewayProbe); err != nil {
		return serve.ReadyzBody{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.readyzURL, nil)
	if err != nil {
		return serve.ReadyzBody{}, err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return serve.ReadyzBody{}, err
	}
	defer resp.Body.Close()
	sc, ok := r.probes.Get()
	if !ok {
		sc = &probeScratch{}
	}
	defer r.probes.Put(sc)
	raw, err := serve.ReadLimited(resp.Body, resp.ContentLength, readyzLimit, sc.buf)
	if err != nil {
		return serve.ReadyzBody{}, fmt.Errorf("reading /readyz body: %w", err)
	}
	sc.buf = raw
	tail := bytes.TrimSpace(raw)
	tail = bytes.TrimSpace(tail[bytes.LastIndexByte(tail, '\n')+1:])
	// Parsed into a zeroed document, so what is returned shares no
	// storage with the next probe's parse.
	sc.body = serve.ReadyzBody{}
	if err := json.Unmarshal(tail, &sc.body); err != nil {
		return serve.ReadyzBody{}, fmt.Errorf("parsing /readyz JSON tail: %w", err)
	}
	return sc.body, nil
}

// observe feeds one health observation into r's machine, updates the
// state gauge, and emits a replica_health event on transitions. Both
// the prober and the route path (transport outcomes) funnel through
// here, so a dead replica drains after DrainAfter failed forwards
// without waiting for probe ticks.
func (g *Gateway) observe(r *replica, ok bool, body *serve.ReadyzBody, errStr string) {
	r.mu.Lock()
	prev, next := r.hm.observe(ok, time.Now())
	if body != nil {
		r.lastReadyz = *body
	}
	r.lastErr = errStr
	failStreak := r.hm.failStreak
	r.mu.Unlock()
	r.stateGauge.Set(float64(next))
	if prev == next {
		return
	}
	if next == StateDrained && prev.InRotation() {
		g.drains.Inc()
	}
	if next == StateHealthy && !prev.InRotation() {
		g.reinstates.Inc()
	}
	level := obs.LevelWarn
	if next == StateHealthy {
		level = obs.LevelInfo
	}
	g.events.Emit(obs.Event{
		Type: obs.TypeReplicaHealth, Level: level,
		Msg: fmt.Sprintf("replica %s: %s -> %s", r.name, prev, next),
		Err: errStr,
		Extra: map[string]any{
			"replica": r.name, "from": prev.String(), "to": next.String(),
			"fail_streak": failStreak, "in_rotation": next.InRotation(),
		},
	})
}

// InRotation returns how many replicas currently receive traffic.
func (g *Gateway) InRotation() int {
	n := 0
	for _, r := range g.replicas {
		if r.state().InRotation() {
			n++
		}
	}
	return n
}

// retryBudget is the token bucket that bounds retry amplification:
// successful forwards earn ratio tokens (up to cap), each retry spends
// one. During a fleet-wide incident successes dry up, the bucket
// drains, and the gateway stops multiplying traffic at exactly the
// moment retries stop helping.
type retryBudget struct {
	mu     sync.Mutex
	tokens float64
	ratio  float64
	cap    float64
}

func (b *retryBudget) earn() {
	b.mu.Lock()
	if b.tokens += b.ratio; b.tokens > b.cap {
		b.tokens = b.cap
	}
	b.mu.Unlock()
}

func (b *retryBudget) spend() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}
