// Command dvperf is the repository benchmark. One run trains or loads
// the fixture (the QuickScale digits classifier and its fitted
// validator), sets up the system under test, drives one workload for a
// fixed time, checks every verdict against an in-process reference, and
// prints every metric by name with its unit. The last line of standard
// output is a JSON summary:
//
//	{"correct": true, "attempted": 2000, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root (bench/run.sh builds and runs it with
// everything kept under .bench_build/):
//
//	bash bench/run.sh -workload check-direct -seed 1 -seconds 15
//	bash bench/run.sh -workload batch-fleet -seed 1 -trace 1 -out traces
//
// With -trace 0 the run reports the end-to-end metrics; with -trace 1 it
// reports the per-layer metrics instead and writes its spans as JSON
// lines under -out. See bench/README.md for the workloads and metrics.
// The command exits non-zero on any verdict mismatch or failed operation.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"deepvalidation"
	"deepvalidation/internal/nn"
	"deepvalidation/internal/telemetry"
)

// workload is one traffic mix. See bench/README.md for why each exists.
type workload struct {
	name     string
	served   bool // through the dvserve (and dvgateway) binaries
	replicas int
	gateway  bool
	shape    loadShape
	perOp    int // images per operation
}

// cameraRate is check-direct's offered load in frames per second: the
// six cameras of the nuScenes vehicle, each capturing at 12 Hz (Caesar
// et al., "nuScenes: A multimodal dataset for autonomous driving", CVPR
// 2020), all checked by one supervisor.
const cameraRate = 6 * 12

var workloads = []workload{
	{name: "check-direct", served: true, replicas: 1, shape: loadShape{rate: cameraRate, workers: 2}, perOp: 1},
	{name: "batch-fleet", served: true, replicas: 2, gateway: true, shape: loadShape{workers: 2}, perOp: 32},
	{name: "offline-score", shape: loadShape{workers: 1}, perOp: 300},
	{name: "fit", shape: loadShape{workers: 1}},
}

// endToEnd lists the metrics an untraced run prints. Latency and
// throughput are not among them: on a shared host they do not repeat
// within a tenth from run to run, so the traced run reports them as
// the client layer's metrics instead.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"alloc_kb_per_image", "KiB"},
	{"rss_p50_mb", "MiB"},
}

// fixtureName is the fixture every run measures; the smoke test swaps
// in the 8×8 band fixture.
var fixtureName = "digits"

const (
	// setupReps is how many times a run sets the system up; setup_s is
	// the median.
	setupReps = 31
	// poolSize is the number of distinct traffic images.
	poolSize = 512
	// calibrationFPR is the false-positive rate ε is calibrated to.
	calibrationFPR = 0.05
	// traceFetches bounds the span trees read back after a traced phase.
	traceFetches = 100
	// runBudget bounds a run after its builds and fixture are ready.
	runBudget = 170 * time.Second
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	out      string
	work     string
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("dvperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(names, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed for the traffic images, their order and the arrival times")
	fs.IntVar(&o.seconds, "seconds", 15, "length of the measured phase in seconds")
	fs.IntVar(&o.trace, "trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	fs.StringVar(&o.out, "out", "", "directory for the traced run's spans (default <work>/traces)")
	fs.StringVar(&o.work, "work", "", "directory for builds, the fixture cache and run files (default <repo>/.bench_build)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("-seconds %d: want at least 1", o.seconds)
	}
	if o.trace != 0 && o.trace != 1 {
		return o, fmt.Errorf("-trace %d: want 0 or 1", o.trace)
	}
	return o, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one benchmark run and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseOptions(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "dvperf:", err)
		return 2
	}
	b := &bench{opt: o, log: stderr}
	res, err := b.run()
	if err != nil {
		fmt.Fprintln(stderr, "dvperf:", err)
		return 1
	}
	defs := endToEnd
	if o.trace == 1 {
		defs = layerMetrics
	}
	fmt.Fprintf(stdout, "workload %s seed %d: %d operations, %d failed, correct %v\n", o.workload, o.seed, res.Attempted, res.Failed, res.Correct)
	for _, d := range defs {
		fmt.Fprintf(stdout, "%-40s %14.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "dvperf:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	// Every workload is sized so that no operation fails; one that does
	// (a mismatch, a shed, a transport error) makes the run invalid.
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON summary line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// bench is one run's state.
type bench struct {
	opt  options
	wl   workload
	log  io.Writer
	root string
	work string

	fx      *fixture
	ref     *deepvalidation.Detector // reference scorer: same artifacts and ε, one worker
	eps     float64
	pl      *pool
	order   []int     // check-direct: pool image per request
	batches *batchSet // batch-fleet
	chunks  []chunk   // offline-score

	dvserve, dvgateway string

	mismatched int // verdict mismatches in any phase, warm-up included
	spans      spanLog
}

func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(b.log, "dvperf: "+format+"\n", args...)
}

func (b *bench) run() (*result, error) {
	for _, w := range workloads {
		if w.name == b.opt.workload {
			b.wl = w
		}
	}
	if b.wl.name == "" {
		return nil, fmt.Errorf("unknown workload %q", b.opt.workload)
	}
	if err := b.prepare(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	var metrics map[string]float64
	var ph *phase
	var err error
	if b.opt.trace == 1 {
		metrics, ph, err = b.traced(ctx)
	} else {
		metrics, ph, err = b.measure(ctx)
	}
	if err != nil {
		return nil, err
	}
	failed, mismatched := ph.failures(b.log)
	b.mismatched += mismatched
	res := &result{
		Correct:   b.mismatched == 0,
		Attempted: len(ph.ops),
		Failed:    failed,
		Metrics:   map[string]metricValue{},
	}
	defs := endToEnd
	if b.opt.trace == 1 {
		defs = layerMetrics
	}
	for _, d := range defs {
		v, ok := metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}

// findRoot walks up from the working directory to the deepvalidation
// module root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module deepvalidation\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no deepvalidation module above the working directory")
		}
		dir = parent
	}
}

// prepare builds everything the measured phases need: binaries, the
// fixture, ε, the traffic pool with its reference verdicts, and the
// workload's request order.
func (b *bench) prepare() error {
	var err error
	if b.root, err = findRoot(); err != nil {
		return err
	}
	b.work = b.opt.work
	if b.work == "" {
		b.work = filepath.Join(b.root, ".bench_build")
	}
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		return err
	}
	b.logf("host: nproc %d, GOMAXPROCS %d, %s, cpu %q", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())

	if b.wl.served {
		t0 := time.Now()
		if b.dvserve, b.dvgateway, err = buildBinaries(context.Background(), b.root, filepath.Join(b.work, "bin")); err != nil {
			return err
		}
		b.logf("built dvserve and dvgateway in %.1fs", time.Since(t0).Seconds())
	}

	t0 := time.Now()
	fx, trained, err := loadFixture(fixtureName, b.root, b.work)
	if err != nil {
		return err
	}
	b.fx = fx
	how := "loaded from cache"
	if trained {
		how = "trained"
	}
	b.logf("fixture %s %s in %.1fs: model sha256 %s, validator sha256 %s", fx.name, how, time.Since(t0).Seconds(), fx.modelSHA, fx.valSHA)

	if b.ref, err = deepvalidation.Load(fx.modelPath, fx.valPath); err != nil {
		return err
	}
	b.ref.SetWorkers(1)
	clean := make([]deepvalidation.Image, len(fx.testX))
	for i, x := range fx.testX {
		clean[i] = imageOf(x)
	}
	if b.eps, err = b.ref.Calibrate(clean, calibrationFPR); err != nil {
		return err
	}
	if b.pl, err = buildPool(fx, b.ref, b.opt.seed, poolSize); err != nil {
		return err
	}
	b.logf("traffic: %d images, %d corner-case variants, flagged share %.3f, eps %.6g", len(b.pl.imgs), b.pl.corner, float64(b.pl.flagged)/float64(len(b.pl.imgs)), b.eps)

	// A second stream, so the pool does not shift when the order does.
	rng := rand.New(rand.NewSource(b.opt.seed ^ 0x5eed))
	switch b.wl.name {
	case "check-direct":
		b.order = make([]int, 4096)
		for i := range b.order {
			b.order[i] = rng.Intn(len(b.pl.imgs))
		}
		b.logf("request body %d bytes (1 image)", len(b.pl.bodies[b.order[0]]))
	case "batch-fleet":
		if b.batches, err = buildBatches(b.pl, rng, 128, b.wl.perOp); err != nil {
			return err
		}
		b.logf("request body %d bytes (%d images)", len(b.batches.bodies[0]), b.wl.perOp)
	case "offline-score":
		b.chunks = buildChunks(b.pl, rng, 16, b.wl.perOp)
	}
	return nil
}

// system is one set-up instance of what a workload drives.
type system struct {
	fleet  *fleet
	client *http.Client
	det    *deepvalidation.Detector // offline-score
	net    *nn.Network              // fit
}

// setUp brings up the system under test: the fleet processes until each
// answers /readyz, or the in-process detector (or network, for fit)
// loaded from the artifacts. traceStore > 0 turns server tracing on.
func (b *bench) setUp(ctx context.Context, traceStore int) (*system, error) {
	switch {
	case b.wl.served:
		f, err := startFleet(ctx, fleetSpec{
			dvserve: b.dvserve, dvgateway: b.dvgateway,
			model: b.fx.modelPath, validator: b.fx.valPath, eps: b.eps,
			replicas: b.wl.replicas, gateway: b.wl.gateway, traceStore: traceStore,
		})
		if err != nil {
			return nil, err
		}
		return &system{fleet: f, client: newClient()}, nil
	case b.wl.name == "fit":
		net, err := nn.Load(b.fx.modelPath)
		if err != nil {
			return nil, err
		}
		return &system{net: net}, nil
	default:
		det, err := deepvalidation.Load(b.fx.modelPath, b.fx.valPath)
		if err != nil {
			return nil, err
		}
		det.SetEpsilon(b.eps)
		det.SetWorkers(2)
		return &system{det: det}, nil
	}
}

// close stops the system's processes; closing twice is harmless.
func (s *system) close() {
	if s == nil {
		return
	}
	s.fleet.stop()
	s.fleet = nil
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
}

// pids are the working processes: the servers, or the harness itself
// for the in-process workloads.
func (s *system) pids() []int {
	if s.fleet != nil {
		return s.fleet.pids()
	}
	return []int{os.Getpid()}
}

// allocated returns the bytes the working processes have allocated so
// far.
func (s *system) allocated() (uint64, error) {
	if s.fleet == nil {
		return readRuntime().allocBytes, nil
	}
	st, err := scrapeAll(s.fleet.procs())
	if err != nil {
		return 0, err
	}
	total := uint64(0)
	for _, x := range st {
		total += x.mem.TotalAlloc
	}
	return total, nil
}

// op returns the workload's operation against sys; reg, when non-nil,
// instruments Fit.
func (b *bench) op(sys *system, reg *telemetry.Registry) opFunc {
	switch b.wl.name {
	case "check-direct":
		return checkOp(sys.client, sys.fleet.front(), b.pl, b.order)
	case "batch-fleet":
		return batchOp(sys.client, sys.fleet.front(), b.pl, b.batches)
	case "offline-score":
		return offlineOp(sys.det, b.pl, b.chunks)
	default:
		cfg := b.fx.fitCfg
		cfg.Telemetry = reg
		return fitOp(sys.net, b.fx, cfg)
	}
}

// phase runs op under the workload's load for d; n numbers the phase so
// its arrival times and request IDs differ from the others'.
func (b *bench) phase(ctx context.Context, op opFunc, n int, d time.Duration) *phase {
	rng := rand.New(rand.NewSource(b.opt.seed*16 + int64(n)))
	prefix := fmt.Sprintf("s%d-p%d", b.opt.seed, n)
	return runPhase(ctx, b.wl.shape, d, rng, prefix, op)
}

// warmUp lets connections, caches and pools fill before timing; its
// mismatches still fail the run.
func (b *bench) warmUp(ctx context.Context, sys *system, n int) {
	ph := b.phase(ctx, b.op(sys, nil), n, b.warmup())
	_, mismatched := ph.failures(b.log)
	b.mismatched += mismatched
}

// warmup is an eighth of the measured phase, between 0.2 and 3 seconds.
func (b *bench) warmup() time.Duration {
	d := time.Duration(b.opt.seconds) * time.Second / 8
	return min(max(d, 200*time.Millisecond), 3*time.Second)
}

// measure is the untraced run: the end-to-end metrics.
func (b *bench) measure(ctx context.Context) (map[string]float64, *phase, error) {
	var sys *system
	defer func() { sys.close() }()
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		sys.close()
		sys = nil
		t0 := time.Now()
		s, err := b.setUp(ctx, 0)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		sys = s
	}
	b.warmUp(ctx, sys, 0)
	before, err := sys.allocated()
	if err != nil {
		return nil, nil, err
	}
	rss := startRSS(sys.pids())
	ph := b.phase(ctx, b.op(sys, nil), 1, time.Duration(b.opt.seconds)*time.Second)
	rssP50 := rss.end()
	after, err := sys.allocated()
	if err != nil {
		return nil, nil, err
	}
	if ctx.Err() != nil {
		return nil, nil, fmt.Errorf("run exceeded its %v budget", runBudget)
	}
	images := ph.images()
	if images == 0 {
		return nil, nil, errors.New("no operation completed")
	}
	lat := ph.latenciesMs()
	b.logf("measured %d operations (%d images, %.1f/s) in %v; latency ms p50 %.3f p95 %.3f p99 %.3f over %d samples; set-up s %.4f",
		len(ph.ops), images, ph.imagesPerSecond(), time.Duration(b.opt.seconds)*time.Second,
		quantile(lat, 0.5), quantile(lat, 0.95), quantile(lat, 0.99), len(lat), setups)
	return map[string]float64{
		"setup_s":            median(setups),
		"alloc_kb_per_image": float64(after-before) / 1024 / float64(images),
		"rss_p50_mb":         rssP50,
	}, ph, nil
}
