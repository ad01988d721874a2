package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"time"

	"deepvalidation"
	"deepvalidation/internal/core"
	"deepvalidation/internal/nn"
	"deepvalidation/internal/serve"
	"deepvalidation/internal/telemetry"
	"deepvalidation/internal/tensor"
	"deepvalidation/internal/trace"
)

// metricDef is one reported metric: its name and unit.
type metricDef struct{ name, unit string }

// The fixture network has seven layers and validates the first six.
const (
	netLayers       = 7
	validatedLayers = 6
)

// layerMetrics lists the per-layer metrics a traced run prints, by
// module. A metric of a layer the workload does not pass through (the
// gateway on check-direct, serve on offline-score, scoring on fit)
// reads 0.
var layerMetrics = func() []metricDef {
	defs := []metricDef{
		{"client.latency_p50_ms", "ms"},
		{"client.latency_p95_ms", "ms"},
		{"client.images_per_s", "img/s"},
		{"client.late_p99_ms", "ms"},
		{"client.queue_ms_mean", "ms"},
		{"client.requests", "count"},
		{"gateway.self_ms_p50", "ms"},
		{"gateway.upstream_ms_p50", "ms"},
		{"gateway.retries", "count"},
		{"gateway.shed", "count"},
		{"gateway.route_share_max", "ratio"},
		{"serve.admission_ms_p50", "ms"},
		{"serve.batch_wait_ms_p50", "ms"},
		{"serve.dispatch_ms_p50", "ms"},
		{"serve.score_ms_p50", "ms"},
		{"serve.batch_size_mean", "count"},
		{"serve.shed", "count"},
		{"serve.deadline", "count"},
		{"serve.decode_us_per_image", "us"},
		{"serve.encode_us_per_image", "us"},
		{"detector.overhead_us_per_image", "us"},
		{"core.score_us_per_image", "us"},
		{"core.forward_us_per_image", "us"},
		{"core.score_allocs_per_image", "count"},
	}
	for p := 1; p <= validatedLayers; p++ {
		defs = append(defs, metricDef{fmt.Sprintf("core.reduce_layer%d_us", p), "us"})
	}
	defs = append(defs,
		metricDef{"core.fit_collect_s", "s"},
		metricDef{"core.fit_forward_s", "s"},
		metricDef{"core.fit_reduce_s", "s"},
		metricDef{"core.fit_svm_s", "s"},
		metricDef{"core.fit_drift_s", "s"},
		metricDef{"core.fit_kept", "count"},
		metricDef{"core.fit_collect_alloc_kb_per_image", "KiB"},
	)
	for l := 1; l <= netLayers; l++ {
		defs = append(defs, metricDef{fmt.Sprintf("nn.layer%d_us", l), "us"})
	}
	defs = append(defs,
		metricDef{"nn.conv_share", "ratio"},
		metricDef{"nn.forward_allocs_per_image", "count"},
		metricDef{"tensor.conv_mmac_per_image", "Mmac"},
		metricDef{"tensor.conv_gmac_per_s", "Gmac/s"},
		metricDef{"tensor.conv_mb_per_image", "MB"},
	)
	for p := 1; p <= validatedLayers; p++ {
		defs = append(defs, metricDef{fmt.Sprintf("svm.decision_layer%d_us", p), "us"})
	}
	for p := 1; p <= validatedLayers; p++ {
		defs = append(defs, metricDef{fmt.Sprintf("svm.sv_layer%d", p), "count"})
	}
	return append(defs,
		metricDef{"svm.kernel_evals_per_image", "count"},
		metricDef{"svm.train_s", "s"},
		metricDef{"runtime.gc_cpu_share", "ratio"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.sched_latency_p99_us", "us"},
		metricDef{"trace.overhead_pct", "%"},
		metricDef{"trace.accounted_pct", "%"},
	)
}()

// spanRec is one span of the traced run's output, one JSON line each.
// Parent is 0 for a root; SelfNs is the duration minus the part of it
// the span's children cover.
type spanRec struct {
	TraceID string `json:"trace_id"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	SelfNs  int64  `json:"self_ns"`
}

// spanLog keeps every span of a traced run in memory.
type spanLog struct {
	recs []spanRec
}

// add records a span and returns its ID.
func (l *spanLog) add(traceID string, parent int, name string, start, end, self int64) int {
	id := len(l.recs) + 1
	l.recs = append(l.recs, spanRec{TraceID: traceID, ID: id, Parent: parent, Name: name, StartNs: start, EndNs: end, SelfNs: self})
	return id
}

// addTree records a server span tree under parent. Spans the gateway
// recorded are named gateway.*, spans a replica recorded serve.*.
func (l *spanLog) addTree(traceID string, parent int, s *trace.Span, tier string) {
	if t, _ := s.Attrs["tier"].(string); t == "replica" {
		tier = "serve"
	}
	id := l.add(traceID, parent, tier+"."+s.Name, s.StartNs, s.StartNs+s.DurNs, selfNs(s))
	for _, c := range s.Children {
		l.addTree(traceID, id, c, tier)
	}
}

func (l *spanLog) bytes() []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range l.recs {
		_ = enc.Encode(r)
	}
	return buf.Bytes()
}

// covered returns the length of the union of the intervals, clipped to
// [lo, hi).
func covered(lo, hi int64, iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, cur := int64(0), lo
	for _, x := range iv {
		s, e := max(x[0], cur), min(x[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// selfNs is a span's duration minus the time its children cover.
func selfNs(s *trace.Span) int64 {
	iv := make([][2]int64, 0, len(s.Children))
	for _, c := range s.Children {
		iv = append(iv, [2]int64{c.StartNs, c.StartNs + c.DurNs})
	}
	return s.DurNs - covered(s.StartNs, s.StartNs+s.DurNs, iv)
}

func child(s *trace.Span, name string) *trace.Span {
	var last *trace.Span
	for _, c := range s.Children {
		if c.Name == name {
			if _, failed := c.Attrs["error"]; !failed {
				last = c
			}
		}
	}
	return last
}

// tierStats accumulates the span-derived per-layer samples, in ms.
type tierStats struct {
	stage            map[string][]float64 // serve stage durations by span name
	gwSelf, upstream []float64
	accounted        []float64 // root span duration over the request's time on a connection, %
	missing          int
}

// fetchTraces reads back the span trees of up to limit evenly spaced
// requests of the traced phase: the stitched two-tier tree from the
// gateway, or the replica's own tree. Each is recorded under a client
// span from the request's scheduled send time to its completion, with a
// client.queue child for any wait for a free connection.
func fetchTraces(c *http.Client, front string, ph *phase, limit int, spans *spanLog) (*tierStats, error) {
	ts := &tierStats{stage: map[string][]float64{}}
	step := max(1, len(ph.ops)/limit)
	for i := 0; i < len(ph.ops); i += step {
		op := ph.ops[i]
		if op.err != nil {
			continue
		}
		var tr struct {
			Root    *trace.Span `json:"root"`
			Partial bool        `json:"partial"`
		}
		resp, err := c.Get(front + "/debug/dv/trace/" + op.id)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			ts.missing++
			continue
		}
		err = json.NewDecoder(resp.Body).Decode(&tr)
		resp.Body.Close()
		if err != nil || tr.Root == nil || tr.Partial {
			ts.missing++
			continue
		}
		root := tr.Root
		tier := "serve"
		verdicts := []*trace.Span{root}
		if root.Name == "gateway" {
			tier = "gateway"
			up := child(root, "upstream")
			if up == nil {
				ts.missing++
				continue
			}
			verdicts = up.Children
			iv := make([][2]int64, 0, len(verdicts))
			for _, v := range verdicts {
				iv = append(iv, [2]int64{v.StartNs, v.StartNs + v.DurNs})
			}
			ts.gwSelf = append(ts.gwSelf, float64(root.DurNs-covered(root.StartNs, root.StartNs+root.DurNs, iv))/1e6)
			ts.upstream = append(ts.upstream, float64(up.DurNs)/1e6)
		}
		for _, v := range verdicts {
			for _, st := range v.Children {
				ts.stage[st.Name] = append(ts.stage[st.Name], float64(st.DurNs)/1e6)
			}
		}
		// The request waited for a free connection from due to start;
		// the server spans can only account for the time after that.
		wire := op.end.Sub(op.start)
		ts.accounted = append(ts.accounted, 100*float64(root.DurNs)/float64(wire))
		cid := spans.add(op.id, 0, "client", op.due.UnixNano(), op.end.UnixNano(), wire.Nanoseconds()-root.DurNs)
		if q := op.start.Sub(op.due); q > 0 {
			spans.add(op.id, cid, "client.queue", op.due.UnixNano(), op.start.UnixNano(), q.Nanoseconds())
		}
		spans.addTree(op.id, cid, root, tier)
	}
	return ts, nil
}

// engine replays one scoring call stage by stage through the public
// per-layer functions the validator itself calls (ForwardInfer of each
// network layer, FeatureReducer.ReduceInto, OneClass.DecisionBatchInto)
// with the same arithmetic in the same order, so its result must be
// bit-identical to Validator.Score.
type engine struct {
	net  *nn.Network
	val  *core.Validator
	sc   *nn.Scratch
	taps []*tensor.Tensor
	feat [][]float64
	xrow [1][]float64
	drow [1]float64
}

// stageTimes holds one replayed score's stage durations.
type stageTimes struct {
	layer    [netLayers]time.Duration
	conv     time.Duration
	reduce   [validatedLayers]time.Duration
	decision [validatedLayers]time.Duration
}

func newEngine(net *nn.Network, val *core.Validator) (*engine, error) {
	if len(net.Layers) != netLayers || len(val.LayerIdx) != validatedLayers {
		return nil, fmt.Errorf("engine: want a %d-layer network validating %d layers, got %d and %d",
			netLayers, validatedLayers, len(net.Layers), len(val.LayerIdx))
	}
	for _, l := range net.Layers {
		for _, c := range leaves(l) {
			if _, ok := c.(nn.InferenceLayer); !ok {
				return nil, fmt.Errorf("engine: layer %s has no inference path", c.Name())
			}
		}
	}
	return &engine{net: net, val: val, sc: nn.NewScratch(), feat: make([][]float64, len(val.LayerIdx))}, nil
}

// leaves returns a top-level layer's children, or the layer itself.
func leaves(l nn.Layer) []nn.Layer {
	if s, ok := l.(*nn.Seq); ok {
		return s.Children
	}
	return []nn.Layer{l}
}

func (e *engine) score(x *tensor.Tensor, st *stageTimes) core.Result {
	e.taps = e.taps[:0]
	for li, l := range e.net.Layers {
		t0 := time.Now()
		for _, c := range leaves(l) {
			tc := time.Now()
			x = c.(nn.InferenceLayer).ForwardInfer(x, e.sc)
			if _, ok := c.(*nn.Conv2D); ok {
				st.conv += time.Since(tc)
			}
		}
		st.layer[li] = time.Since(t0)
		e.taps = append(e.taps, x)
	}
	label := x.ArgMax()
	res := core.Result{Label: label, Confidence: x.Data[label], Layer: make([]float64, len(e.val.LayerIdx))}
	if !finite(res.Confidence) {
		res.Confidence = 0
		res.NonFinite = true
	}
	for p, l := range e.val.LayerIdx {
		t0 := time.Now()
		e.feat[p] = e.val.Reducers[p].ReduceInto(e.feat[p], e.taps[l])
		t1 := time.Now()
		e.xrow[0] = e.feat[p]
		d := -e.val.SVMs[p][label].DecisionBatchInto(e.drow[:], e.xrow[:])[0]
		st.decision[p] = time.Since(t1)
		st.reduce[p] = t1.Sub(t0)
		res.Layer[p] = d
		if !finite(d) {
			res.NonFinite = true
			continue
		}
		res.Joint += d
	}
	return res
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// sameResult compares two scoring results bit for bit.
func sameResult(a, b core.Result) bool {
	if a.Label != b.Label || math.Float64bits(a.Confidence) != math.Float64bits(b.Confidence) ||
		math.Float64bits(a.Joint) != math.Float64bits(b.Joint) || a.NonFinite != b.NonFinite || len(a.Layer) != len(b.Layer) {
		return false
	}
	for i := range a.Layer {
		if math.Float64bits(a.Layer[i]) != math.Float64bits(b.Layer[i]) {
			return false
		}
	}
	return true
}

// convCost derives the conv work of one forward pass from the layer
// shapes: multiply-accumulates, and the bytes computed — im2col columns,
// weights and output, 8 bytes each.
func convCost(net *nn.Network) (macs, bytes float64) {
	in := net.InShape
	for _, l := range net.Layers {
		for _, c := range leaves(l) {
			if cv, ok := c.(*nn.Conv2D); ok {
				out := cv.OutShape(in)
				area := float64(out[1] * out[2])
				k := float64(cv.InC * cv.KH * cv.KW)
				macs += float64(cv.OutC) * area * k
				bytes += 8 * (k*area + float64(cv.OutC)*k + float64(cv.OutC)*area)
			}
			in = c.OutShape(in)
		}
	}
	return macs, bytes
}

// histDelta returns the growth of a histogram's count and sum across
// processes between two scrapes.
func histDelta(before, after []serverStats, name string) (count int64, sum float64) {
	for i := range after {
		a, b := after[i].reg.Histograms[name], before[i].reg.Histograms[name]
		count += a.Count - b.Count
		sum += a.Sum - b.Sum
	}
	return count, sum
}

// routeShareMax is the largest share of routed requests one replica got.
func routeShareMax(before, after serverStats, replicas int) float64 {
	total, top := int64(0), int64(0)
	for r := 1; r <= replicas; r++ {
		name := telemetry.Label("dv_gw_replica_requests_total", "replica", "r"+strconv.Itoa(r))
		d := after.reg.Counters[name] - before.reg.Counters[name]
		total += d
		top = max(top, d)
	}
	if total == 0 {
		return 0
	}
	return float64(top) / float64(total)
}

// codecTimes times the serve layer's JSON work in-process on this run's
// bodies: the strict decode and Image.Validate of every request, and the
// encode of every verdict response, in µs per image.
func codecTimes(pl *pool, bs *batchSet) (decode, encode float64, err error) {
	const reps = 3
	var dec, enc []float64
	for r := 0; r < reps; r++ {
		images := 0
		t0 := time.Now()
		if bs == nil {
			for _, body := range pl.bodies {
				var req serve.CheckRequest
				d := json.NewDecoder(bytes.NewReader(body))
				d.DisallowUnknownFields()
				if err := d.Decode(&req); err != nil {
					return 0, 0, err
				}
				if err := imageOfRequest(req).Validate(); err != nil {
					return 0, 0, err
				}
				images++
			}
		} else {
			for _, body := range bs.bodies {
				var req serve.BatchRequest
				d := json.NewDecoder(bytes.NewReader(body))
				d.DisallowUnknownFields()
				if err := d.Decode(&req); err != nil {
					return 0, 0, err
				}
				for _, im := range req.Images {
					if err := imageOfRequest(im).Validate(); err != nil {
						return 0, 0, err
					}
					images++
				}
			}
		}
		dec = append(dec, us(time.Since(t0))/float64(images))

		var buf bytes.Buffer
		images = 0
		t0 = time.Now()
		if bs == nil {
			for _, v := range pl.ref {
				buf.Reset()
				resp := serve.VerdictResponse{Label: v.Label, Confidence: v.Confidence, Discrepancy: v.Discrepancy, Valid: v.Valid, Quarantined: v.Quarantined}
				if err := json.NewEncoder(&buf).Encode(resp); err != nil {
					return 0, 0, err
				}
				images++
			}
		} else {
			for _, idx := range bs.idx {
				buf.Reset()
				resp := serve.BatchResponse{Verdicts: make([]serve.VerdictResponse, len(idx))}
				for j, i := range idx {
					v := pl.ref[i]
					resp.Verdicts[j] = serve.VerdictResponse{Label: v.Label, Confidence: v.Confidence, Discrepancy: v.Discrepancy, Valid: v.Valid, Quarantined: v.Quarantined}
				}
				if err := json.NewEncoder(&buf).Encode(resp); err != nil {
					return 0, 0, err
				}
				images += len(idx)
			}
		}
		enc = append(enc, us(time.Since(t0))/float64(images))
	}
	return median(dec), median(enc), nil
}

func imageOfRequest(r serve.CheckRequest) deepvalidation.Image {
	return deepvalidation.Image{Channels: r.Channels, Height: r.Height, Width: r.Width, Pixels: r.Pixels}
}
