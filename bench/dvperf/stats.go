package main

import (
	"bufio"
	"bytes"
	"math"
	"os"
	"runtime"
	runtimemetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"deepvalidation/internal/metrics"
)

// quantile returns the q-quantile of xs (metrics.QuantilesSorted, the
// numpy default), or 0 for no samples. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return metrics.QuantilesSorted(xs, []float64{q})[0]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// runtimeStats is one read of the harness's own runtime counters, for
// the in-process workloads (where the harness is the working process)
// and for the client's scheduling latency.
type runtimeStats struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU, cpu float64
	sched      *runtimemetrics.Float64Histogram
}

var runtimeSampleNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func readRuntime() runtimeStats {
	samples := make([]runtimemetrics.Sample, len(runtimeSampleNames))
	for i, n := range runtimeSampleNames {
		samples[i].Name = n
	}
	runtimemetrics.Read(samples)
	var s runtimeStats
	for _, smp := range samples {
		switch smp.Name {
		case "/gc/heap/allocs:bytes":
			s.allocBytes = smp.Value.Uint64()
		case "/gc/cycles/total:gc-cycles":
			s.gcCycles = smp.Value.Uint64()
		case "/cpu/classes/gc/total:cpu-seconds":
			s.gcCPU = smp.Value.Float64()
		case "/cpu/classes/total:cpu-seconds":
			s.cpu = smp.Value.Float64()
		case "/sched/latencies:seconds":
			s.sched = smp.Value.Float64Histogram()
		}
	}
	return s
}

// schedP99 returns the 99th percentile scheduling latency between two
// reads of the cumulative runtime histogram, as the upper bound of the
// bucket that holds it.
func schedP99(before, after runtimeStats) time.Duration {
	h0, h1 := before.sched, after.sched
	if h0 == nil || h1 == nil || len(h0.Counts) != len(h1.Counts) {
		return 0
	}
	total := uint64(0)
	for i := range h1.Counts {
		total += h1.Counts[i] - h0.Counts[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(0.99 * float64(total)))
	cum := uint64(0)
	for i := range h1.Counts {
		cum += h1.Counts[i] - h0.Counts[i]
		if cum >= want {
			ub := h1.Buckets[i+1]
			if math.IsInf(ub, 1) {
				ub = h1.Buckets[i]
			}
			return time.Duration(ub * 1e9)
		}
	}
	return 0
}

// rssKB reads a process's resident set size from /proc.
func rssKB(pid int) int64 {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				v, _ := strconv.ParseInt(f[0], 10, 64)
				return v
			}
		}
	}
	return 0
}

// rssSampler samples the summed resident set of the working processes
// every 10 ms until stopped. Sampling, unlike the kernel's VmHWM,
// excludes whatever the processes touched during set-up.
type rssSampler struct {
	pids []int
	stop chan struct{}
	done chan struct{}
	kb   []float64 // written only by the sampling goroutine until done
}

func startRSS(pids []int) *rssSampler {
	r := &rssSampler{pids: pids, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			sum := int64(0)
			for _, p := range r.pids {
				sum += rssKB(p)
			}
			r.kb = append(r.kb, float64(sum))
			select {
			case <-r.stop:
				return
			case <-t.C:
			}
		}
	}()
	return r
}

// end stops sampling and returns the median of the samples in MiB. The
// peak, and the upper percentiles near it, depend on where collections
// happen to fall and do not repeat from run to run.
func (r *rssSampler) end() float64 {
	close(r.stop)
	<-r.done
	return median(r.kb) / 1024
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
