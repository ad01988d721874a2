package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"deepvalidation/internal/telemetry"
)

// buildBinaries compiles the real dvserve and dvgateway commands from
// the repository at root into dir.
func buildBinaries(ctx context.Context, root, dir string) (dvserve, dvgateway string, err error) {
	dvserve = filepath.Join(dir, "dvserve")
	dvgateway = filepath.Join(dir, "dvgateway")
	for _, b := range []struct{ out, pkg string }{{dvserve, "./cmd/dvserve"}, {dvgateway, "./cmd/dvgateway"}} {
		cmd := exec.CommandContext(ctx, "go", "build", "-o", b.out, b.pkg)
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			return "", "", fmt.Errorf("go build %s: %v\n%s", b.pkg, err, out)
		}
	}
	return dvserve, dvgateway, nil
}

// control is the client for readiness probes and scrapes: no pooled
// connections outlive a probe, and a hung server fails the run instead
// of stalling it.
var control = &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}

// proc is one launched server process. Its bound serving and metrics
// addresses are parsed from the startup lines it prints on stderr.
type proc struct {
	name        string
	cmd         *exec.Cmd
	addr        string // host:port of the API
	metricsAddr string // host:port of /metrics and /debug/vars
	readDone    chan struct{}

	mu   sync.Mutex
	tail []string // last stderr lines, for error reports
}

// startProc launches bin and waits until it has printed both bound
// addresses and answers GET /readyz with 200.
func startProc(ctx context.Context, name, bin string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	// The kernel kills the child if the harness dies first.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, readDone: make(chan struct{})}
	addrs := make(chan [2]string, 1)
	go p.readStderr(stderr, addrs)
	fail := func(err error) (*proc, error) {
		p.stop()
		return nil, fmt.Errorf("%s: %w\n%s", name, err, p.stderrTail())
	}
	wait := time.NewTimer(30 * time.Second)
	defer wait.Stop()
	select {
	case a := <-addrs:
		p.addr, p.metricsAddr = a[0], a[1]
	case <-p.readDone:
		return fail(errors.New("exited before serving"))
	case <-wait.C:
		return fail(errors.New("no bound address within 30s"))
	case <-ctx.Done():
		return fail(ctx.Err())
	}
	for {
		resp, err := control.Get("http://" + p.addr + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		select {
		case <-p.readDone:
			return fail(errors.New("exited before ready"))
		case <-wait.C:
			return fail(errors.New("not ready within 30s"))
		case <-ctx.Done():
			return fail(ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// readStderr keeps the last lines of the child's stderr and reports the
// API and metrics addresses once both startup lines have appeared.
func (p *proc) readStderr(r io.Reader, addrs chan<- [2]string) {
	defer close(p.readDone)
	var api, metrics string
	sent := false
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		p.mu.Lock()
		p.tail = append(p.tail, line)
		if len(p.tail) > 20 {
			p.tail = p.tail[1:]
		}
		p.mu.Unlock()
		if _, url, ok := strings.Cut(line, " on http://"); ok && strings.Contains(line, ": serving ") {
			if strings.HasPrefix(line, "metrics:") {
				metrics = url
			} else {
				api = url
			}
		}
		if !sent && api != "" && metrics != "" {
			addrs <- [2]string{api, metrics}
			sent = true
		}
	}
}

func (p *proc) stderrTail() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.tail, "\n")
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// stop sends SIGTERM (both servers drain and exit on it), escalates to
// SIGKILL after 10 s, and waits for the process to end.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.readDone:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.readDone
	}
	_ = p.cmd.Wait()
}

// fleet is the served system under test: one or more dvserve replicas,
// optionally behind a dvgateway.
type fleet struct {
	replicas []*proc
	gateway  *proc
}

// front is the base URL the client sends traffic to.
func (f *fleet) front() string {
	if f.gateway != nil {
		return "http://" + f.gateway.addr
	}
	return "http://" + f.replicas[0].addr
}

func (f *fleet) procs() []*proc {
	ps := append([]*proc(nil), f.replicas...)
	if f.gateway != nil {
		ps = append(ps, f.gateway)
	}
	return ps
}

func (f *fleet) pids() []int {
	var out []int
	for _, p := range f.procs() {
		out = append(out, p.pid())
	}
	return out
}

func (f *fleet) stop() {
	if f == nil {
		return
	}
	// The gateway goes first so it does not probe replicas mid-exit.
	if f.gateway != nil {
		f.gateway.stop()
	}
	for _, r := range f.replicas {
		r.stop()
	}
}

// fleetSpec says what to launch. Every process keeps its default flags
// except addresses (ephemeral loopback ports), the fixture artifacts and
// ε, and -metrics-addr; traceStore > 0 turns on tracing of every request
// with a store of that many traces.
type fleetSpec struct {
	dvserve, dvgateway string
	model, validator   string
	eps                float64
	replicas           int
	gateway            bool
	traceStore         int
}

func startFleet(ctx context.Context, s fleetSpec) (*fleet, error) {
	f := &fleet{}
	var tracing []string
	if s.traceStore > 0 {
		tracing = []string{"-trace-sample", "1", "-trace-store", strconv.Itoa(s.traceStore)}
	}
	type started struct {
		p   *proc
		err error
	}
	ch := make(chan started, s.replicas)
	for i := 0; i < s.replicas; i++ {
		name := fmt.Sprintf("dvserve-%d", i+1)
		go func() {
			args := append([]string{
				"-model", s.model, "-validator", s.validator,
				"-eps", strconv.FormatFloat(s.eps, 'g', -1, 64),
				"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0",
			}, tracing...)
			p, err := startProc(ctx, name, s.dvserve, args...)
			ch <- started{p, err}
		}()
	}
	var firstErr error
	for i := 0; i < s.replicas; i++ {
		st := <-ch
		if st.err != nil && firstErr == nil {
			firstErr = st.err
		}
		if st.p != nil {
			f.replicas = append(f.replicas, st.p)
		}
	}
	if firstErr != nil {
		f.stop()
		return nil, firstErr
	}
	if s.gateway {
		args := []string{"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0"}
		for i, r := range f.replicas {
			args = append(args, "-replica", fmt.Sprintf("r%d@%s", i+1, r.addr))
		}
		gw, err := startProc(ctx, "dvgateway", s.dvgateway, append(args, tracing...)...)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.gateway = gw
	}
	return f, nil
}

// serverStats is one scrape of a process's /debug/vars memstats and its
// telemetry registry.
type serverStats struct {
	mem struct {
		TotalAlloc    uint64
		NumGC         uint32
		GCCPUFraction float64
	}
	reg telemetry.Snapshot
}

func getJSON(url string, v any) error {
	resp, err := control.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func scrape(p *proc) (serverStats, error) {
	var s serverStats
	var vars struct {
		Memstats json.RawMessage `json:"memstats"`
	}
	if err := getJSON("http://"+p.metricsAddr+"/debug/vars", &vars); err != nil {
		return s, err
	}
	if err := json.Unmarshal(vars.Memstats, &s.mem); err != nil {
		return s, fmt.Errorf("%s memstats: %w", p.name, err)
	}
	if err := getJSON("http://"+p.metricsAddr+"/metrics?format=json", &s.reg); err != nil {
		return s, err
	}
	return s, nil
}

func scrapeAll(ps []*proc) ([]serverStats, error) {
	out := make([]serverStats, len(ps))
	for i, p := range ps {
		var err error
		if out[i], err = scrape(p); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// counterDelta sums a counter (every labelled series whose name starts
// with prefix) across processes between two scrapes.
func counterDelta(before, after []serverStats, prefix string) int64 {
	d := int64(0)
	for i := range after {
		for name, v := range after[i].reg.Counters {
			if name == prefix || strings.HasPrefix(name, prefix+"{") {
				d += v - before[i].reg.Counters[name]
			}
		}
	}
	return d
}

// writeFile is os.WriteFile creating the parent directory.
func writeFile(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
