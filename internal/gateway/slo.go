package gateway

import (
	"fmt"

	"deepvalidation/internal/obs"
)

// SLOOptions declares the gateway's burn-rate objectives, evaluated by
// the same obs.Engine dvserve uses — over the dv_gw_* instruments
// instead of the serving counters. Availability counts requests the
// gateway shed at capacity (429) or refused unroutable (503) as bad;
// the route-latency objective counts successfully routed requests (ok
// and retry outcomes).
type SLOOptions struct {
	obs.SLOOptions
	// PassthroughGoal is the goal fraction of requests not answered
	// with relayed replica backpressure (429/503 passthrough); default
	// 0.99 — replicas shedding is an expected, bounded regime.
	PassthroughGoal float64
	// BadGatewayGoal is the goal fraction of requests not answered 502
	// (or a relayed replica 500/502 the retry budget could not absorb);
	// default 0.999.
	BadGatewayGoal float64
}

// buildSLO assembles the burn-rate engine over the gateway objectives.
// All sources difference monotone counters/histograms the route path
// already maintains, so evaluation costs nothing on the hot path;
// breach evidence comes from the outcome ring. With tracing on, every
// cited ID resolves on the gateway's own /debug/dv/trace/{id}.
func (g *Gateway) buildSLO() {
	o := g.cfg.SLO
	if !o.Enabled || g.cfg.Registry == nil {
		return
	}
	target := o.LatencyTarget.Seconds()
	objectives := []obs.Objective{
		{
			Name:        "availability",
			Description: fmt.Sprintf("fraction of requests routed without gateway-origin shedding (goal %g)", o.Availability),
			Goal:        o.Availability,
			Source: func() (float64, float64) {
				bad := float64(g.shed.Value() + g.unroutable.Value())
				tot := float64(g.reqCheck.Value() + g.reqBatch.Value())
				return bad, tot
			},
			Outcomes: []string{outcomeShed},
		},
		{
			Name:        "passthrough",
			Description: fmt.Sprintf("fraction of requests not answered with relayed replica backpressure (goal %g)", o.PassthroughGoal),
			Goal:        o.PassthroughGoal,
			Source: func() (float64, float64) {
				bad := float64(g.pass429.Value() + g.pass503.Value())
				tot := float64(g.reqCheck.Value() + g.reqBatch.Value())
				return bad, tot
			},
			Outcomes: []string{outcomePassthrough},
		},
		{
			Name:        "bad_gateway",
			Description: fmt.Sprintf("fraction of requests not answered 502 after the retry allowance (goal %g)", o.BadGatewayGoal),
			Goal:        o.BadGatewayGoal,
			Source: func() (float64, float64) {
				bad := float64(g.latBadGateway.Count())
				tot := float64(g.reqCheck.Value() + g.reqBatch.Value())
				return bad, tot
			},
			Outcomes: []string{outcomeBadGateway},
		},
		{
			Name:        "route_latency",
			Description: fmt.Sprintf("fraction of routed requests under %v end to end (goal %g)", o.LatencyTarget, o.LatencyGoal),
			Goal:        o.LatencyGoal,
			Source: func() (float64, float64) {
				bad := float64(g.latOK.CountAbove(target) + g.latRetry.CountAbove(target))
				tot := float64(g.latOK.Count() + g.latRetry.Count())
				return bad, tot
			},
			Outcomes:   []string{outcomeOK, outcomeRetry},
			SlowerThan: target,
		},
	}
	g.slo = obs.NewEngine(obs.SLOConfig{
		Objectives: objectives,
		Windows:    o.Windows,
		Interval:   o.Interval,
		Burn:       o.Burn,
		Registry:   g.cfg.Registry,
		Events:     g.events,
		Recent:     g.recent,
	})
}

// SLOStatus returns the gateway SLO engine's last evaluation (Enabled
// false when the engine is off).
func (g *Gateway) SLOStatus() obs.Status {
	return g.slo.Status()
}

// SLOTick forces one synchronous SLO evaluation — the deterministic
// hook tests and smoke drivers use instead of waiting out the engine's
// interval. Nil-safe when the engine is disabled.
func (g *Gateway) SLOTick() { g.slo.Tick() }
