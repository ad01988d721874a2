package obs

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"deepvalidation/internal/telemetry"
)

// LogOptions holds the values of the standard logging flags shared by
// every dv* binary. Register with AddLogFlags, then Build once flags
// are parsed.
type LogOptions struct {
	level string
	file  string
	max   int64
}

// AddLogFlags registers the standard observability flags on fs:
//
//	-log LEVEL        minimum event severity (debug|info|warn|error),
//	                  or "off" to disable event logging entirely
//	-log-file PATH    mirror events as NDJSON to PATH with atomic
//	                  size-based rotation; "-" or "stderr" writes to
//	                  standard error instead
//	-log-max-bytes N  rotation threshold for -log-file
func AddLogFlags(fs *flag.FlagSet) *LogOptions {
	o := &LogOptions{}
	fs.StringVar(&o.level, "log", "info", "minimum wide-event severity (debug|info|warn|error), or off to disable event logging")
	fs.StringVar(&o.file, "log-file", "", "mirror wide events as NDJSON to this file (atomic size-rotated); - or stderr writes to standard error")
	fs.Int64Var(&o.max, "log-max-bytes", DefaultMaxLogBytes, "rotate -log-file when it would exceed this many bytes")
	return o
}

// Build constructs the Logger the flags describe: a bounded in-memory
// ring (always, for /debug/dv/events), plus the NDJSON sink requested
// by -log-file. Returns nil when -log=off; callers treat a nil logger
// as "events disabled" everywhere. Close the returned logger to flush
// file sinks.
func (o *LogOptions) Build(reg *telemetry.Registry) (*Logger, error) {
	if o == nil || o.level == "off" || o.level == "none" {
		return nil, nil
	}
	min, err := ParseLevel(o.level)
	if err != nil {
		return nil, err
	}
	cfg := Config{MinLevel: min, Registry: reg}
	switch o.file {
	case "":
	case "-", "stderr":
		cfg.Sinks = append(cfg.Sinks, NewWriterSink(os.Stderr))
	default:
		sink, err := NewFileSink(o.file, o.max)
		if err != nil {
			return nil, fmt.Errorf("obs: -log-file: %w", err)
		}
		cfg.Sinks = append(cfg.Sinks, sink)
	}
	return New(cfg), nil
}

// metricsAddrUsage describes -metrics-addr in both flag groups.
const metricsAddrUsage = "serve /metrics, /debug/vars, and /debug/pprof on this address (e.g. \":9090\" or \"127.0.0.1:0\"; empty disables)"

// ServerFlags are the observability flags dvserve and dvgateway share.
// Once flags are parsed, pass TraceSample, TraceStore and SLO into the
// tier's Config and build the rest with Open. Each tier registers the
// goal flags of its own other objectives itself.
type ServerFlags struct {
	log         *LogOptions
	metricsAddr string

	TraceSample float64
	TraceStore  int
	SLO         SLOOptions
}

// AddServerFlags registers on fs the flags of AddLogFlags,
// -metrics-addr, -trace-sample, -trace-store, -slo and the -slo-* goals
// and tuning of the objectives both tiers declare.
func AddServerFlags(fs *flag.FlagSet) *ServerFlags {
	f := &ServerFlags{log: AddLogFlags(fs)}
	fs.StringVar(&f.metricsAddr, "metrics-addr", "", metricsAddrUsage)
	fs.Float64Var(&f.TraceSample, "trace-sample", 0, "trace head-sampling rate in [0,1]; 0 disables tracing (X-DV-Trace-Id headers are always traced when > 0)")
	fs.IntVar(&f.TraceStore, "trace-store", DefaultTraceStore, "retained sampled traces for /debug/dv/trace/{id}")
	fs.BoolVar(&f.SLO.Enabled, "slo", false, "evaluate SLO burn rates (/debug/dv/slo, dv_slo_* metrics, breach events)")
	fs.Float64Var(&f.SLO.Availability, "slo-availability", 0.999, "availability objective: goal fraction of requests not shed (dvserve: nor expired; dvgateway: nor refused unroutable)")
	fs.DurationVar(&f.SLO.LatencyTarget, "slo-latency-target", 250*time.Millisecond, "latency objective target (dvserve: a /v1/check request; dvgateway: a routed request, end to end)")
	fs.Float64Var(&f.SLO.LatencyGoal, "slo-latency-goal", 0.99, "latency objective: goal fraction of requests under -slo-latency-target")
	fs.DurationVar(&f.SLO.Interval, "slo-interval", 0, "burn-rate evaluation cadence (0: the engine default)")
	fs.Float64Var(&f.SLO.Burn, "slo-burn", 0, "burn-rate breach threshold sustained on every window (0: the engine default 14.4)")
	return f
}

// Open builds the process's observability: a registry when
// -metrics-addr or -slo asks for one (the SLO engine differences
// counters out of it), the logger, and with a registry the runtime
// collector, publishing dv_build_info with info's labels. Build the
// tier on Registry and Events, then start the listener with
// ServeMetrics.
func (f *ServerFlags) Open(info map[string]string) (*Process, error) {
	return open(f.log, f.metricsAddr != "" || f.SLO.Enabled, f.metricsAddr, info)
}

// OfflineFlags are the observability flags of dvvalidate and dvbench.
type OfflineFlags struct {
	log         *LogOptions
	summary     bool
	metricsAddr string
	linger      time.Duration
}

// AddOfflineFlags registers on fs the flags of AddLogFlags,
// -telemetry, -metrics-addr and -metrics-linger.
func AddOfflineFlags(fs *flag.FlagSet) *OfflineFlags {
	f := &OfflineFlags{log: AddLogFlags(fs)}
	fs.BoolVar(&f.summary, "telemetry", false, "print a telemetry summary when the run finishes")
	fs.StringVar(&f.metricsAddr, "metrics-addr", "", metricsAddrUsage)
	fs.DurationVar(&f.linger, "metrics-linger", 0, "keep the metrics endpoint serving this long after the run finishes (for scrapers)")
	return f
}

// Open builds what ServerFlags.Open does, with -telemetry or
// -metrics-addr asking for the registry, and starts the listener. With
// -telemetry, Close first writes summary of the registry to standard
// output.
func (f *OfflineFlags) Open(info map[string]string, summary func(io.Writer, telemetry.Snapshot)) (*Process, error) {
	p, err := open(f.log, f.summary || f.metricsAddr != "", f.metricsAddr, info)
	if err != nil {
		return nil, err
	}
	if err := p.ServeMetrics(); err != nil {
		p.Close()
		return nil, err
	}
	p.linger = f.linger
	if f.summary {
		p.summary = summary
	}
	return p, nil
}

// Process is one process's observability, released by one Close: the
// registry (nil when no flag asks for one, which costs the hot paths
// nothing), the logger (nil with -log=off), the runtime collector and
// the metrics listener.
type Process struct {
	Registry *telemetry.Registry
	Events   *Logger

	runtime     *Runtime
	addr        string
	linger      time.Duration
	summary     func(io.Writer, telemetry.Snapshot)
	stopMetrics func() error
}

func open(log *LogOptions, wantRegistry bool, addr string, info map[string]string) (*Process, error) {
	p := &Process{addr: addr}
	if wantRegistry {
		p.Registry = telemetry.New()
	}
	events, err := log.Build(p.Registry)
	if err != nil {
		return nil, err
	}
	p.Events = events
	p.runtime = NewRuntime(p.Registry, info) // nil without a registry
	p.runtime.Start(0)
	return p, nil
}

// ServeMetrics starts the listener on -metrics-addr, if set, and
// prints "metrics: serving ... on http://ADDR" on standard error, so
// ":0" runs are scrapable.
func (p *Process) ServeMetrics() error {
	if p.addr == "" {
		return nil
	}
	bound, stop, err := telemetry.Serve(p.addr, p.Registry)
	if err != nil {
		return err
	}
	p.stopMetrics = stop
	fmt.Fprintf(os.Stderr, "metrics: serving /metrics, /debug/vars, and /debug/pprof/ on http://%s\n", bound)
	return nil
}

// Close writes the summary, if asked for, lingers and stops the
// listener, stops the runtime collector and flushes the logger.
func (p *Process) Close() {
	if p.summary != nil {
		p.summary(os.Stdout, p.Registry.Snapshot())
	}
	if p.stopMetrics != nil {
		if p.linger > 0 {
			fmt.Fprintf(os.Stderr, "metrics: lingering %v before shutdown\n", p.linger)
			time.Sleep(p.linger)
		}
		_ = p.stopMetrics()
	}
	p.runtime.Stop()
	_ = p.Events.Close()
}
