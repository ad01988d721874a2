package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"deepvalidation/internal/core"
	"deepvalidation/internal/gateway"
	"deepvalidation/internal/metrics"
	"deepvalidation/internal/nn"
	"deepvalidation/internal/serve"
	"deepvalidation/internal/telemetry"
)

// spanImages is how many traffic images the engine decomposition
// records as span trees (its timings cover every image).
const spanImages = 16

// traced is the traced run, which reports the per-layer metrics. The
// measured time is split between two sets of freshly started processes:
// an untraced half reads the counters each layer already keeps and sets
// the latency baseline, then a half with every request traced reads the
// span trees back. The in-process decompositions of the engine (or of
// Fit) follow. End-to-end numbers never come from this run;
// trace.overhead_pct compares its two halves.
func (b *bench) traced(ctx context.Context) (map[string]float64, *phase, error) {
	m := map[string]float64{}
	for _, d := range layerMetrics {
		m[d.name] = 0
	}
	half := max(time.Duration(b.opt.seconds)*time.Second/2, 500*time.Millisecond)

	sys, err := b.setUp(ctx, 0)
	if err != nil {
		return nil, nil, err
	}
	b.warmUp(ctx, sys, 0)
	var c0, c1 []serverStats
	if sys.fleet != nil {
		if c0, err = scrapeAll(sys.fleet.procs()); err != nil {
			sys.close()
			return nil, nil, err
		}
	}
	rt0 := readRuntime()
	base := b.phase(ctx, b.op(sys, nil), 1, half)
	rt1 := readRuntime()
	if sys.fleet != nil {
		if c1, err = scrapeAll(sys.fleet.procs()); err != nil {
			sys.close()
			return nil, nil, err
		}
	}
	sys.close()
	b.counterMetrics(m, base, c0, c1, rt0, rt1)

	// Every request of the traced half is traced; the stores hold all of
	// them, with room for the warm-up's.
	rate := float64(len(base.ops)) / half.Seconds()
	store := int(rate*(half+b.warmup()).Seconds()*2)*max(b.wl.perOp, 1) + 256
	var reg *telemetry.Registry
	if b.wl.name == "fit" {
		reg = telemetry.New()
	}
	if sys, err = b.setUp(ctx, store); err != nil {
		return nil, nil, err
	}
	defer sys.close()
	b.warmUp(ctx, sys, 2)
	op := b.op(sys, reg)
	var fitStages map[string][3]time.Duration
	if reg != nil {
		op, fitStages = fitStageOp(op, reg)
	}
	ph := b.phase(ctx, op, 3, half)
	if sys.fleet != nil {
		ts, err := fetchTraces(sys.client, sys.fleet.front(), ph, traceFetches, &b.spans)
		if err != nil {
			return nil, nil, fmt.Errorf("reading traces: %w", err)
		}
		if len(ts.accounted) == 0 {
			return nil, nil, fmt.Errorf("no trace could be read back (%d missing)", ts.missing)
		}
		b.logf("read back %d span trees (%d missing)", len(ts.accounted), ts.missing)
		m["serve.admission_ms_p50"] = median(ts.stage["admission"])
		m["serve.batch_wait_ms_p50"] = median(ts.stage["batch_wait"])
		m["serve.dispatch_ms_p50"] = median(ts.stage["dispatch"])
		m["serve.score_ms_p50"] = median(ts.stage["score"])
		m["gateway.self_ms_p50"] = median(ts.gwSelf)
		m["gateway.upstream_ms_p50"] = median(ts.upstream)
		m["trace.accounted_pct"] = median(ts.accounted)
		if m["serve.decode_us_per_image"], m["serve.encode_us_per_image"], err = codecTimes(b.pl, b.batches); err != nil {
			return nil, nil, err
		}
	} else {
		name := "deepvalidation.check_batch"
		if b.wl.name == "fit" {
			name = "core.fit"
		}
		for _, op := range ph.ops {
			start, end := op.start.UnixNano(), op.end.UnixNano()
			st := fitStages[op.id]
			self := end - start - int64(st[0]+st[1]+st[2])
			root := b.spans.add(op.id, 0, name, start, end, self)
			cur := start
			for i, d := range st {
				if d > 0 {
					b.spans.add(op.id, root, fitStageNames[i], cur, cur+int64(d), int64(d))
					cur += int64(d)
				}
			}
		}
	}
	sys.close()
	m["trace.overhead_pct"] = 100 * (median(ph.latenciesMs())/median(base.latenciesMs()) - 1)

	if b.wl.name == "fit" {
		b.fitMetrics(m, reg, ph)
	} else if err := b.engineMetrics(m); err != nil {
		return nil, nil, err
	}

	out := b.opt.out
	if out == "" {
		out = filepath.Join(b.work, "traces")
	}
	path := filepath.Join(out, fmt.Sprintf("%s-seed%d.jsonl", b.wl.name, b.opt.seed))
	if err := writeFile(path, b.spans.bytes()); err != nil {
		return nil, nil, err
	}
	b.logf("wrote %d spans to %s", len(b.spans.recs), path)
	both := &phase{start: base.start, ops: append(append([]opRec(nil), base.ops...), ph.ops...)}
	return m, both, nil
}

// counterMetrics fills the metrics read from counters over the untraced
// half: the servers' own registries and memstats for served workloads,
// the harness's runtime for in-process ones, and for both the client's
// latency, throughput, lateness and scheduling latency.
func (b *bench) counterMetrics(m map[string]float64, ph *phase, c0, c1 []serverStats, rt0, rt1 runtimeStats) {
	lat := ph.latenciesMs()
	m["client.latency_p50_ms"] = quantile(lat, 0.50)
	m["client.latency_p95_ms"] = quantile(lat, 0.95)
	m["client.images_per_s"] = ph.imagesPerSecond()
	m["client.requests"] = float64(len(ph.ops))
	if b.wl.shape.rate > 0 {
		late := make([]float64, len(ph.ops))
		queue := make([]float64, len(ph.ops))
		for i, r := range ph.ops {
			late[i] = ms(r.late)
			queue[i] = ms(r.start.Sub(r.due))
		}
		m["client.late_p99_ms"] = quantile(late, 0.99)
		m["client.queue_ms_mean"] = metrics.Mean(queue)
	}
	m["runtime.sched_latency_p99_us"] = us(schedP99(rt0, rt1))
	if c1 == nil {
		m["runtime.gc_cycles"] = float64(rt1.gcCycles - rt0.gcCycles)
		if cpu := rt1.cpu - rt0.cpu; cpu > 0 {
			m["runtime.gc_cpu_share"] = (rt1.gcCPU - rt0.gcCPU) / cpu
		}
		return
	}
	share := 0.0
	for i := range c1 {
		m["runtime.gc_cycles"] += float64(c1[i].mem.NumGC - c0[i].mem.NumGC)
		share += c1[i].mem.GCCPUFraction
	}
	m["runtime.gc_cpu_share"] = share / float64(len(c1))
	r := b.wl.replicas // fleet.procs lists the replicas first
	if n, sum := histDelta(c0[:r], c1[:r], serve.MetricBatchSize); n > 0 {
		m["serve.batch_size_mean"] = sum / float64(n)
	}
	m["serve.shed"] = float64(counterDelta(c0[:r], c1[:r], serve.MetricShed))
	m["serve.deadline"] = float64(counterDelta(c0[:r], c1[:r], serve.MetricDeadline))
	if b.wl.gateway {
		g0, g1 := c0[r:], c1[r:]
		m["gateway.retries"] = float64(counterDelta(g0, g1, gateway.MetricRetries))
		m["gateway.shed"] = float64(counterDelta(g0, g1, gateway.MetricShed))
		m["gateway.route_share_max"] = routeShareMax(g0[0], g1[0], r)
	}
}

// engineMetrics decomposes scoring in-process over the traffic pool:
// each network layer, each feature reduction and each SVM decision,
// checked bit for bit against Validator.Score, then the whole-call costs
// of Validator.ScoreBatchWorkers and Detector.CheckBatch at one worker.
func (b *bench) engineMetrics(m map[string]float64) error {
	net, val, xs := b.fx.net, b.fx.val, b.pl.xs
	e, err := newEngine(net, val)
	if err != nil {
		return err
	}
	var st stageTimes
	e.score(xs[0], &st) // size the scratch arena
	var layer [netLayers][]float64
	var reduce, decision [validatedLayers][]float64
	var svs [validatedLayers]float64
	var conv, fwd time.Duration
	scored := 0
	budget := min(max(time.Duration(b.opt.seconds)*time.Second/4, 200*time.Millisecond), 3*time.Second)
	for t0, pass := time.Now(), 0; pass == 0 || time.Since(t0) < budget; pass++ {
		for i, x := range xs {
			st = stageTimes{}
			start := time.Now()
			res := e.score(x, &st)
			if pass == 0 {
				if want := val.Score(net, x); !sameResult(res, want) {
					b.mismatched++
					b.logf("engine replay of image %d differs from Validator.Score: %+v vs %+v", i, res, want)
				}
				for p := range svs {
					svs[p] += float64(len(val.SVMs[p][res.Label].Alpha))
				}
				if i < spanImages {
					b.engineSpans(fmt.Sprintf("engine-%d", i), start, &st)
				}
			}
			for l, d := range st.layer {
				layer[l] = append(layer[l], us(d))
				fwd += d
			}
			for p := range st.reduce {
				reduce[p] = append(reduce[p], us(st.reduce[p]))
				decision[p] = append(decision[p], us(st.decision[p]))
			}
			conv += st.conv
			scored++
		}
	}
	for l := range layer {
		m[fmt.Sprintf("nn.layer%d_us", l+1)] = median(layer[l])
	}
	for p := range reduce {
		m[fmt.Sprintf("core.reduce_layer%d_us", p+1)] = median(reduce[p])
		m[fmt.Sprintf("svm.decision_layer%d_us", p+1)] = median(decision[p])
		m[fmt.Sprintf("svm.sv_layer%d", p+1)] = svs[p] / float64(len(xs))
		m["svm.kernel_evals_per_image"] += svs[p] / float64(len(xs))
	}
	m["nn.conv_share"] = conv.Seconds() / fwd.Seconds()
	macs, bytes := convCost(net)
	m["tensor.conv_mmac_per_image"] = macs / 1e6
	m["tensor.conv_mb_per_image"] = bytes / 1e6
	m["tensor.conv_gmac_per_s"] = macs * float64(scored) / conv.Seconds() / 1e9

	perImage := func(fn func()) float64 {
		t0 := time.Now()
		fn()
		return us(time.Since(t0)) / float64(len(xs))
	}
	var score, check []float64
	for r := 0; r < 5; r++ {
		score = append(score, perImage(func() { val.ScoreBatchWorkers(net, xs, 1) }))
		check = append(check, perImage(func() { _, err = b.ref.CheckBatch(b.pl.imgs) }))
		if err != nil {
			return err
		}
	}
	m["core.score_us_per_image"] = median(score)
	m["detector.overhead_us_per_image"] = median(check) - median(score)

	var fw []float64
	tm := &core.ScoreTimings{}
	for r := 0; r < 3; r++ {
		for _, x := range xs {
			val.ScoreTimed(net, x, tm)
			fw = append(fw, us(tm.Forward))
		}
	}
	m["core.forward_us_per_image"] = median(fw)

	m["core.score_allocs_per_image"] = allocsPerImage(len(xs), func() { val.ScoreBatchWorkers(net, xs, 1) })
	sc := nn.NewScratch()
	net.ForwardTappedScratch(xs[0], sc)
	m["nn.forward_allocs_per_image"] = allocsPerImage(len(xs), func() {
		for _, x := range xs {
			net.ForwardTappedScratch(x, sc)
		}
	})
	return nil
}

// engineSpans records one replayed score as a span tree. The replay
// times stages, not instants, so the children are laid end to end from
// the score's start.
func (b *bench) engineSpans(traceID string, start time.Time, st *stageTimes) {
	cur := start.UnixNano()
	total := int64(0)
	for _, d := range st.layer {
		total += d.Nanoseconds()
	}
	for p := range st.reduce {
		total += st.reduce[p].Nanoseconds() + st.decision[p].Nanoseconds()
	}
	root := b.spans.add(traceID, 0, "core.score", cur, cur+total, 0)
	leaf := func(name string, d time.Duration) {
		b.spans.add(traceID, root, name, cur, cur+d.Nanoseconds(), d.Nanoseconds())
		cur += d.Nanoseconds()
	}
	for l, d := range st.layer {
		leaf(fmt.Sprintf("nn.layer%d", l+1), d)
	}
	for p := range st.reduce {
		leaf(fmt.Sprintf("core.reduce.layer%d", p+1), st.reduce[p])
		leaf(fmt.Sprintf("svm.decision.layer%d", p+1), st.decision[p])
	}
}

// allocsPerImage counts heap allocations of fn per image.
func allocsPerImage(images int, fn func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(images)
}

// fitStageNames name Fit's sequential wall-clock stages, in order, as
// the children of a traced fit's span.
var fitStageNames = [3]string{"core.fit.collect", "core.fit.svm", "core.fit.drift"}

// fitStageOp wraps an instrumented fit so each operation's share of the
// stage histograms (collect, SVM, drift) is kept by request ID. The fit
// workload runs one operation at a time, so the differences between
// consecutive snapshots belong to one fit.
func fitStageOp(op opFunc, reg *telemetry.Registry) (opFunc, map[string][3]time.Duration) {
	stages := map[string][3]time.Duration{}
	var mu sync.Mutex
	sums := func() (s [3]float64) {
		snap := reg.Snapshot()
		for i, name := range []string{core.MetricFitCollect, core.MetricFitSVMStage, core.MetricFitDrift} {
			s[i] = snap.Histograms[name].Sum
		}
		return s
	}
	return func(ctx context.Context, k int, id string) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		before := sums()
		n, err := op(ctx, k, id)
		after := sums()
		var d [3]time.Duration
		for i := range d {
			d[i] = time.Duration((after[i] - before[i]) * float64(time.Second))
		}
		stages[id] = d
		return n, err
	}, stages
}

// fitMetrics reads the traced half's Fit stage histograms (per fit) and
// measures the allocation of Fit's collection pass on its own.
func (b *bench) fitMetrics(m map[string]float64, reg *telemetry.Registry, ph *phase) {
	fits := 0
	for _, op := range ph.ops {
		if op.err == nil {
			fits++
		}
	}
	if fits == 0 {
		return
	}
	snap := reg.Snapshot()
	per := func(name string) float64 { return snap.Histograms[name].Sum / float64(fits) }
	m["core.fit_collect_s"] = per(core.MetricFitCollect)
	m["core.fit_forward_s"] = per(core.MetricFitForward)
	m["core.fit_reduce_s"] = per(core.MetricFitReduce)
	m["core.fit_svm_s"] = per(core.MetricFitSVMStage)
	m["core.fit_drift_s"] = per(core.MetricFitDrift)
	m["svm.train_s"] = per(core.MetricFitSVM)
	m["core.fit_kept"] = float64(snap.Counters[core.MetricFitKept]) / float64(fits)

	fx := b.fx
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, x := range fx.trainX {
		probs, taps := fx.net.ForwardTapped(x)
		if probs.ArgMax() != fx.trainY[i] {
			continue
		}
		for p, l := range fx.val.LayerIdx {
			fx.val.Reducers[p].Reduce(taps[l])
		}
	}
	runtime.ReadMemStats(&m1)
	m["core.fit_collect_alloc_kb_per_image"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(len(fx.trainX))
}
