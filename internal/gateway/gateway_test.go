package gateway

// Fleet-level battery for the gateway. TestMain builds one tiny
// detector (and a second, differently seeded validator for rollout
// tests) and saves the artifacts; each test then assembles its own
// fleet of real serve.Servers — or cheap fake replicas where detector
// behavior is irrelevant — behind a Gateway with the background prober
// disabled, so every health observation in a test is one it injected
// deterministically via ProbeAll or the route path.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"deepvalidation"
	"deepvalidation/internal/artifact"
	"deepvalidation/internal/serve"
	"deepvalidation/internal/telemetry"
)

var (
	testModelPath string // v1 model container
	testValPath   string // v1 validator container
	testValV2Path string // differently-fitted validator, same geometry
	testEps       float64
)

// testImages generates the deterministic 3-class band corpus the
// fixture detector is trained on (same recipe as the serve tests).
func testImages(seed int64, n int) ([]deepvalidation.Image, []int) {
	rng := rand.New(rand.NewSource(seed))
	imgs := make([]deepvalidation.Image, 0, n)
	labels := make([]int, 0, n)
	for i := 0; i < n; i++ {
		k := rng.Intn(3)
		px := make([]float64, 64)
		for j := range px {
			px[j] = 0.15 * rng.Float64()
		}
		for y := 2 * k; y < 2*k+3; y++ {
			for x := 0; x < 8; x++ {
				px[y*8+x] = 0.8 + 0.2*rng.Float64()
			}
		}
		imgs = append(imgs, deepvalidation.Image{Channels: 1, Height: 8, Width: 8, Pixels: px})
		labels = append(labels, k)
	}
	return imgs, labels
}

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "dv-gateway-test-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	imgs, labels := testImages(1, 90)
	build := func(seed int64) (*deepvalidation.Detector, error) {
		return deepvalidation.Build(imgs, labels, deepvalidation.BuildConfig{
			Classes: 3, Epochs: 6, Width: 4, FCWidth: 16,
			SVMPerClass: 30, SVMFeatures: 64, Seed: seed,
		})
	}
	det, err := build(5)
	if err != nil {
		fmt.Fprintln(os.Stderr, "building fixture detector:", err)
		os.Exit(1)
	}
	clean, _ := testImages(2, 60)
	if testEps, err = det.Calibrate(clean, 0.2); err != nil {
		fmt.Fprintln(os.Stderr, "calibrating fixture detector:", err)
		os.Exit(1)
	}
	testModelPath = filepath.Join(dir, "model.dvart")
	testValPath = filepath.Join(dir, "validator.dvart")
	if err := det.Save(testModelPath, testValPath); err != nil {
		fmt.Fprintln(os.Stderr, "saving fixture detector:", err)
		os.Exit(1)
	}
	// The rollout target: a validator fitted under a different seed.
	// Same architecture, classes, and tap geometry — so it is a
	// compatible hot-swap for the v1 model — but a different payload,
	// hence a different SHA-256 for convergence to verify.
	det2, err := build(9)
	if err != nil {
		fmt.Fprintln(os.Stderr, "building v2 detector:", err)
		os.Exit(1)
	}
	testValV2Path = filepath.Join(dir, "validator_v2.dvart")
	if err := det2.Save(filepath.Join(dir, "model_v2.dvart"), testValV2Path); err != nil {
		fmt.Fprintln(os.Stderr, "saving v2 artifacts:", err)
		os.Exit(1)
	}
	// os.Exit skips deferred calls, so the fixture dir is removed here.
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// replicaProc is one in-process dvserve replica: its own artifact
// copies (so rollouts touch per-replica files), a serve.Server, and a
// manually managed listener the chaos tests can kill and resurrect on
// the same address.
type replicaProc struct {
	t        testing.TB
	name     string
	modelP   string
	valP     string
	srv      *serve.Server
	hs       *http.Server
	addr     string
	listenWG chan error
}

func copyFileTo(t testing.TB, src, dst string) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// startReplica builds one real replica backed by private artifact
// copies under dir. Optional repTune callbacks adjust the replica's
// serve.Config (e.g. to enable tracing) before the server is built.
func startReplica(t testing.TB, dir, name string, repTune ...func(*serve.Config)) *replicaProc {
	t.Helper()
	rdir := filepath.Join(dir, name)
	if err := os.MkdirAll(rdir, 0o755); err != nil {
		t.Fatal(err)
	}
	p := &replicaProc{
		t:      t,
		name:   name,
		modelP: filepath.Join(rdir, "model.dvart"),
		valP:   filepath.Join(rdir, "validator.dvart"),
	}
	copyFileTo(t, testModelPath, p.modelP)
	copyFileTo(t, testValPath, p.valP)
	loader := func() (*deepvalidation.Detector, error) {
		return deepvalidation.Load(p.modelP, p.valP)
	}
	det, err := loader()
	if err != nil {
		t.Fatal(err)
	}
	det.SetEpsilon(testEps)
	scfg := serve.Config{
		MaxBatch: 4,
		Loader:   loader,
	}
	for _, tune := range repTune {
		tune(&scfg)
	}
	srv, err := serve.New(deepvalidation.NewHandle(det), scfg)
	if err != nil {
		t.Fatal(err)
	}
	p.srv = srv
	p.listen("127.0.0.1:0")
	t.Cleanup(func() {
		p.kill()
		srv.Close()
	})
	return p
}

func headerSHA(path string) string {
	info, err := artifact.ReadHeader(path)
	if err != nil {
		return ""
	}
	return info.Header.PayloadSHA256
}

// listen binds the replica's HTTP front on addr and starts serving.
func (p *replicaProc) listen(addr string) {
	p.t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		p.t.Fatalf("replica %s: listen %s: %v", p.name, addr, err)
	}
	p.addr = ln.Addr().String()
	p.hs = &http.Server{Handler: p.srv.Handler()}
	done := make(chan error, 1)
	p.listenWG = done
	go func() { done <- p.hs.Serve(ln) }()
}

// kill closes the replica's HTTP front (listener and connections); the
// serve.Server behind it stays alive, so restart resurrects the same
// state on the same address.
func (p *replicaProc) kill() {
	if p.hs == nil {
		return
	}
	_ = p.hs.Close()
	<-p.listenWG
	p.hs = nil
}

// restart re-binds the same address. The OS may briefly hold the port,
// so bind attempts retry.
func (p *replicaProc) restart() {
	p.t.Helper()
	if p.hs != nil {
		return
	}
	var lastErr error
	for i := 0; i < 100; i++ {
		ln, err := net.Listen("tcp", p.addr)
		if err == nil {
			p.hs = &http.Server{Handler: p.srv.Handler()}
			done := make(chan error, 1)
			p.listenWG = done
			go func() { done <- p.hs.Serve(ln) }()
			return
		}
		lastErr = err
		time.Sleep(10 * time.Millisecond)
	}
	p.t.Fatalf("replica %s: could not rebind %s: %v", p.name, p.addr, lastErr)
}

// newFleet builds n real replicas and a gateway over them with the
// background prober disabled. Tests drive health deterministically.
func newFleet(t testing.TB, n int, tune func(*Config), repTune ...func(*serve.Config)) (*Gateway, []*replicaProc, *telemetry.Registry) {
	t.Helper()
	dir := t.TempDir()
	procs := make([]*replicaProc, n)
	specs := make([]ReplicaSpec, n)
	for i := range procs {
		name := fmt.Sprintf("replica%d", i+1)
		procs[i] = startReplica(t, dir, name, repTune...)
		specs[i] = ReplicaSpec{Name: name, Addr: procs[i].addr, ValidatorPath: procs[i].valP}
	}
	reg := telemetry.New()
	cfg := Config{
		Replicas:           specs,
		ProbeInterval:      -1, // tests own the probe schedule
		DrainAfter:         2,
		ReinstateAfter:     2,
		ReprobeBackoff:     time.Millisecond,
		ReprobeBackoffCap:  8 * time.Millisecond,
		RolloutVerifyDelay: 5 * time.Millisecond,
		Registry:           reg,
	}
	if tune != nil {
		tune(&cfg)
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	g.ProbeAll()
	return g, procs, reg
}

// fakeFleet builds a gateway over httptest fake replicas — for routing
// logic tests where real detectors would only add noise.
func fakeFleet(t testing.TB, handlers map[string]http.HandlerFunc, tune func(*Config)) (*Gateway, *telemetry.Registry) {
	t.Helper()
	var specs []ReplicaSpec
	for name, h := range handlers {
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		specs = append(specs, ReplicaSpec{Name: name, Addr: strings.TrimPrefix(ts.URL, "http://")})
	}
	reg := telemetry.New()
	cfg := Config{Replicas: specs, ProbeInterval: -1, Registry: reg}
	if tune != nil {
		tune(&cfg)
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g, reg
}

// gwServer mounts the gateway handler on an httptest server.
func gwServer(t testing.TB, g *Gateway) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func checkBody(t testing.TB, img deepvalidation.Image) []byte {
	t.Helper()
	b, err := json.Marshal(serve.CheckRequest{Channels: img.Channels, Height: img.Height, Width: img.Width, Pixels: img.Pixels})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func post(t testing.TB, url string, body []byte) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(data)
}

// distinctBodies builds n structurally valid, pairwise-distinct check
// bodies so rendezvous routing spreads them across replicas.
func distinctBodies(t testing.TB, n int) [][]byte {
	t.Helper()
	imgs, _ := testImages(42, n)
	out := make([][]byte, n)
	for i, img := range imgs {
		out[i] = checkBody(t, img)
	}
	return out
}

// counterValue reads one dv_gw_* counter from the gateway's registry.
func counterValue(t testing.TB, reg *telemetry.Registry, name string) int64 {
	t.Helper()
	return reg.Counter(name).Value()
}
