package gateway

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deepvalidation/internal/serve"
	"deepvalidation/internal/telemetry"
	"deepvalidation/internal/trace"
)

// echoReplica is a fake dvserve: ready on /readyz, and answers routed
// requests with its own name so tests can see where a key landed.
func echoReplica(name string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			io.WriteString(w, "ready\n{\"status\":\"ready\"}\n")
			return
		}
		io.WriteString(w, name)
	}
}

// traceIDTargeting finds a trace ID whose rendezvous winner among names
// is want — the same placement arithmetic route.go uses.
func traceIDTargeting(t *testing.T, names []string, want string) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		id := fmt.Sprintf("trace-%d", i)
		h := fnv.New64a()
		io.WriteString(h, id)
		key := h.Sum64()
		winner, winScore := "", uint64(0)
		for _, n := range names {
			score := rendezvousScore(key, n)
			if winner == "" || score > winScore || (score == winScore && n < winner) {
				winner, winScore = n, score
			}
		}
		if winner == want {
			return id
		}
	}
	t.Fatalf("no trace ID targeting %q found", want)
	return ""
}

func postTraced(t *testing.T, url, traceID string, body string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set(trace.HeaderTraceID, traceID)
	}
	resp, err := http.DefaultClient.Do(req)
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

// TestRoutingHashesMatchFNV pins routeKey and rendezvousScore to the
// hash/fnv computations they inline, so every key still lands on the
// replica it landed on before: a routing key is FNV-1a 64 of the trace
// ID or the body, and a replica's score FNV-1a 64 of the key's eight
// little-endian bytes followed by the replica's name.
func TestRoutingHashesMatchFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := range 200 {
		body := randomBody(rng, rng.Intn(4096))
		id := fmt.Sprintf("trace-%d", rng.Int63())
		r := httptest.NewRequest(http.MethodPost, "/v1/check", nil)
		want := fnv.New64a()
		if i%2 == 0 {
			r.Header.Set(trace.HeaderTraceID, id)
			io.WriteString(want, id)
		} else {
			want.Write(body)
		}
		key := routeKey(r, body)
		if key != want.Sum64() {
			t.Fatalf("routeKey %#x, hash/fnv %#x", key, want.Sum64())
		}
		name := fmt.Sprintf("replica-%d", rng.Intn(1000))
		h := fnv.New64a()
		var le [8]byte
		for j := range le {
			le[j] = byte(key >> (8 * j))
		}
		h.Write(le[:])
		io.WriteString(h, name)
		if got := rendezvousScore(key, name); got != h.Sum64() {
			t.Fatalf("rendezvousScore(%#x, %q) = %#x, hash/fnv %#x", key, name, got, h.Sum64())
		}
	}
}

// TestRendezvousPlacement pins the placement properties routing relies
// on: determinism, full-fleet coverage, and minimal remap when a
// replica drains.
func TestRendezvousPlacement(t *testing.T) {
	g, _ := fakeFleet(t, map[string]http.HandlerFunc{
		"a": echoReplica("a"), "b": echoReplica("b"), "c": echoReplica("c"),
	}, nil)

	const keys = 256
	place := func() map[uint64]string {
		m := make(map[uint64]string, keys)
		for k := uint64(0); k < keys; k++ {
			rep, _, err := g.pick(k, nil)
			if err != nil {
				t.Fatal(err)
			}
			m[k] = rep.name
		}
		return m
	}
	base := place()
	if again := place(); len(again) != keys {
		t.Fatal("second placement incomplete")
	} else {
		for k, name := range base {
			if again[k] != name {
				t.Fatalf("key %d moved %s -> %s with no fleet change", k, name, again[k])
			}
		}
	}
	hit := map[string]int{}
	for _, name := range base {
		hit[name]++
	}
	if len(hit) != 3 {
		t.Fatalf("rendezvous used %d of 3 replicas over %d keys: %v", len(hit), keys, hit)
	}

	// Drain one replica: only its keys may move.
	var drained *replica
	for _, r := range g.replicas {
		if r.name == base[0] {
			drained = r
		}
	}
	drained.mu.Lock()
	drained.hm.state = StateDrained
	drained.mu.Unlock()
	moved := 0
	for k, name := range base {
		rep, _, err := g.pick(k, nil)
		if err != nil {
			t.Fatal(err)
		}
		if name == drained.name {
			if rep.name == drained.name {
				t.Fatalf("key %d still routed to drained replica %s", k, name)
			}
			moved++
			continue
		}
		if rep.name != name {
			t.Fatalf("key %d moved %s -> %s though its replica stayed in rotation", k, name, rep.name)
		}
	}
	if moved != hit[drained.name] {
		t.Fatalf("%d keys moved, want exactly the drained replica's %d", moved, hit[drained.name])
	}
}

// TestRoutingEquivalenceUnderProbes is the race-mode leg: a fixed key
// set must route to exactly the same replicas no matter how probe
// rounds interleave with traffic. Run under -race this also exercises
// every routing/probing lock.
func TestRoutingEquivalenceUnderProbes(t *testing.T) {
	g, _ := fakeFleet(t, map[string]http.HandlerFunc{
		"a": echoReplica("a"), "b": echoReplica("b"), "c": echoReplica("c"),
	}, nil)
	ts := gwServer(t, g)

	ids := make([]string, 48)
	for i := range ids {
		ids[i] = "equiv-" + strings.Repeat("x", i%7) + "-" + string(rune('a'+i%26))
	}
	baseline := make(map[string]string, len(ids))
	for _, id := range ids {
		resp, body := postTraced(t, ts.URL+"/v1/check", id, "{}")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("baseline %s: status %d", id, resp.StatusCode)
		}
		baseline[id] = body
	}

	stop := make(chan struct{})
	var probers sync.WaitGroup
	for i := 0; i < 3; i++ {
		probers.Add(1)
		go func() {
			defer probers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					g.ProbeAll()
				}
			}
		}()
	}
	var routers sync.WaitGroup
	for w := 0; w < 4; w++ {
		routers.Add(1)
		go func(w int) {
			defer routers.Done()
			for round := 0; round < 5; round++ {
				for _, id := range ids {
					resp, body := postTraced(t, ts.URL+"/v1/check", id, "{}")
					if resp.StatusCode != http.StatusOK {
						t.Errorf("worker %d %s: status %d", w, id, resp.StatusCode)
						return
					}
					if body != baseline[id] {
						t.Errorf("worker %d: key %s routed to %s, baseline %s", w, id, body, baseline[id])
						return
					}
				}
			}
		}(w)
	}
	routers.Wait()
	close(stop)
	probers.Wait()
}

// TestRetryOnReplica500 re-routes a 500 to a different replica and
// spends one budget token doing it. The retry resends the very bytes
// the first replica read, and the client sent.
func TestRetryOnReplica500(t *testing.T) {
	var mu sync.Mutex
	received := map[string]string{}
	recording := func(name string, status int) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/readyz" {
				io.WriteString(w, "ready\n{\"status\":\"ready\"}\n")
				return
			}
			b, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			mu.Lock()
			received[name] = string(b)
			mu.Unlock()
			if status != http.StatusOK {
				http.Error(w, "boom", status)
				return
			}
			io.WriteString(w, name)
		}
	}
	g, reg := fakeFleet(t, map[string]http.HandlerFunc{
		"bad": recording("bad", http.StatusInternalServerError), "good": recording("good", http.StatusOK),
	}, nil)
	ts := gwServer(t, g)

	id := traceIDTargeting(t, []string{"bad", "good"}, "bad")
	sent := string(randomBody(rand.New(rand.NewSource(1)), 256<<10))
	resp, body := postTraced(t, ts.URL+"/v1/check", id, sent)
	if resp.StatusCode != http.StatusOK || body != "good" {
		t.Fatalf("status %d body %q, want 200 from good", resp.StatusCode, body)
	}
	if n := counterValue(t, reg, MetricRetries); n != 1 {
		t.Fatalf("retries counter %d, want 1", n)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, name := range []string{"bad", "good"} {
		if got := received[name]; got != sent {
			t.Errorf("replica %s read %d bytes that differ from the %d the client sent", name, len(got), len(sent))
		}
	}
}

// randomBody returns n random bytes: a body no other test request
// shares, so a replica reading any other bytes shows up.
func randomBody(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// TestEarlyAnswerBodyIntact forwards bodies to a replica that answers
// 429 before it reads them, and reads each one only after that, while
// concurrent requests take buffers from the gateway's free list. Every
// body read must be the one its client sent.
//
// Over a real connection ("replica") http.Transport holds back the end
// of the answer until it has written the body, or for 50 ms after which
// it closes the connection, so the handler lets go only once the write
// is over. The RoundTripper contract allows a transport to read the body
// after RoundTrip returns, and the gateway must not lean on that wait:
// in "transport" the reader of each body runs only once its client has
// its 429 and has sent its next body, which a buffer recycled too early
// would now hold.
func TestEarlyAnswerBodyIntact(t *testing.T) {
	const clients, perClient = 4, 8
	// Under freeBufMax, so every body's buffer is recycled; made up front
	// so each client sends its next body right after its answer.
	bodies := make([][][]byte, clients)
	for c := range bodies {
		rng := rand.New(rand.NewSource(int64(c)))
		for range perClient {
			bodies[c] = append(bodies[c], randomBody(rng, 64<<10))
		}
	}
	// sent identifies a forwarded body by the trace ID its client set,
	// which the gateway forwards verbatim while tracing is off.
	sent := func(r *http.Request) (c, s int) {
		if _, err := fmt.Sscanf(r.Header.Get(trace.HeaderTraceID), "%d/%d", &c, &s); err != nil {
			t.Errorf("trace ID %q: %v", r.Header.Get(trace.HeaderTraceID), err)
		}
		return c, s
	}
	var reads sync.WaitGroup
	var corrupt atomic.Int64
	check := func(c, s int, body io.ReadCloser) {
		defer reads.Done()
		b, err := io.ReadAll(body)
		body.Close()
		if err != nil || !bytes.Equal(b, bodies[c][s]) {
			corrupt.Add(1)
		}
	}
	// drive sends every client's bodies, each client from its own
	// goroutine, and closes answered[c][s] once client c has its answer
	// to body s.
	drive := func(t *testing.T, g *Gateway, answered [][]chan struct{}) {
		ts := gwServer(t, g)
		var wg sync.WaitGroup
		for c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s := 0
				defer func() { // on an early return too, so no reader waits forever
					for ; s < perClient; s++ {
						close(answered[c][s])
					}
				}()
				for ; s < perClient; s++ {
					req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/batch", bytes.NewReader(bodies[c][s]))
					if err != nil {
						t.Error(err)
						return
					}
					req.Header.Set(trace.HeaderTraceID, fmt.Sprintf("%d/%d", c, s))
					resp, err := http.DefaultClient.Do(req)
					if err != nil {
						t.Error(err)
						return
					}
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusTooManyRequests {
						t.Errorf("status %d, want the replica's 429", resp.StatusCode)
					}
					close(answered[c][s])
				}
			}()
		}
		wg.Wait()
		reads.Wait()
		if n := corrupt.Swap(0); n != 0 {
			t.Fatalf("%d bodies read differ from what their client sent", n)
		}
	}
	newAnswered := func() [][]chan struct{} {
		answered := make([][]chan struct{}, clients)
		for c := range answered {
			for range perClient {
				answered[c] = append(answered[c], make(chan struct{}))
			}
		}
		return answered
	}

	t.Run("replica", func(t *testing.T) {
		early := func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/readyz" {
				io.WriteString(w, "ready\n{\"status\":\"ready\"}\n")
				return
			}
			if err := http.NewResponseController(w).EnableFullDuplex(); err != nil {
				t.Error(err)
				return
			}
			reads.Add(1) // before the answer, so before drive waits
			w.Header().Set("Content-Length", "4")
			w.WriteHeader(http.StatusTooManyRequests)
			io.WriteString(w, "shed")
			w.(http.Flusher).Flush()
			c, s := sent(r)
			check(c, s, r.Body)
		}
		g, _ := fakeFleet(t, map[string]http.HandlerFunc{"early": early}, nil)
		drive(t, g, newAnswered())
	})
	t.Run("transport", func(t *testing.T) {
		g, _ := fakeFleet(t, map[string]http.HandlerFunc{"early": echoReplica("early")}, nil)
		answered := newAnswered()
		g.transport = roundTripFunc(func(req *http.Request) (*http.Response, error) {
			c, s := sent(req)
			reads.Add(1) // before the answer, so before drive waits
			go func() {
				if s+1 < perClient {
					<-answered[c][s+1]
				}
				check(c, s, req.Body)
			}()
			return &http.Response{StatusCode: http.StatusTooManyRequests, Header: http.Header{}, Body: http.NoBody, Request: req}, nil
		})
		drive(t, g, answered)
	})
}

// TestBodyRefCount pins the record's reference count: Close is
// idempotent, GetBody's readers take their own reference, the record
// goes back to the free list only when the last reference drops — and
// then without a buffer over freeBufMax, and not at all when the list
// is full — and a GetBody kept from an earlier request takes no
// reference once the record has been taken again.
func TestBodyRefCount(t *testing.T) {
	g := &Gateway{exchanges: newExchangeFree()}
	held := func() int { // records the list holds, put back after counting
		var xs []*exchange
		for {
			x, ok := g.exchanges.Get()
			if !ok {
				break
			}
			xs = append(xs, x)
		}
		for _, x := range xs {
			g.exchanges.Put(x)
		}
		return len(xs)
	}
	buf := []byte("request body")
	x := g.takeExchange()
	refs := func() uint32 { return uint32(x.state.Load()) }
	x.body = buf
	first, err := x.getBody() // the transport's request body
	if err != nil {
		t.Fatal(err)
	}
	req := &http.Request{GetBody: x.getBody}
	rewound, err := req.GetBody()
	if err != nil {
		t.Fatal(err)
	}
	if n := refs(); n != 3 {
		t.Fatalf("refs %d with the handler and two readers, want 3", n)
	}
	first.Close()
	first.Close()
	if n := refs(); n != 2 {
		t.Fatalf("refs %d after a double Close, want 2", n)
	}
	if _, err := first.Read(make([]byte, 1)); err == nil {
		t.Fatal("a closed reader still reads")
	}
	x.release() // the handler returns
	if n := held(); n != 0 {
		t.Fatal("record recycled while a reader still holds it")
	}
	if got, err := io.ReadAll(rewound); err != nil || string(got) != string(buf) {
		t.Fatalf("rewound reader read %q, %v", got, err)
	}
	rewound.Close()
	if n := held(); n != 1 {
		t.Fatalf("record not recycled at zero references: list holds %d", n)
	}
	if _, err := req.GetBody(); err == nil {
		t.Fatal("GetBody took a reference on a recycled record")
	}
	if y := g.takeExchange(); y != x || len(y.body) != 0 || &y.body[:1][0] != &buf[0] {
		t.Fatal("the next request did not get the recycled record and its body buffer")
	}
	if _, err := req.GetBody(); err == nil || refs() != 1 {
		t.Fatalf("an earlier request's GetBody took a reference on the next request's record (refs %d)", refs())
	}
	if r, err := x.getBody(); err != nil {
		t.Fatalf("the next request's GetBody: %v", err)
	} else {
		r.Close()
	}

	// Recycled without its oversized buffer; the response's strings go.
	x.body = make([]byte, freeBufMax+1)
	x.resp, x.contentType, x.status = make([]byte, 8), "application/json", 200
	x.release()
	if y := g.takeExchange(); y != x || y.body != nil || cap(y.resp) != 8 || y.contentType != "" || y.status != 0 {
		t.Fatalf("recycled record kept body cap %d, content type %q, status %d", cap(y.body), y.contentType, y.status)
	}
	xs := make([]*exchange, freeListLen+1)
	for i := range xs {
		xs[i] = g.takeExchange()
	}
	for _, x := range xs {
		x.release()
	}
	if n := held(); n != freeListLen {
		t.Fatalf("list holds %d records, bound %d", n, freeListLen)
	}
}

// TestRetryOnConnectFailure re-routes a transport failure and marks the
// dead replica degraded from the route path alone — no probe ticks.
func TestRetryOnConnectFailure(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadAddr := strings.TrimPrefix(dead.URL, "http://")
	dead.Close() // port now refuses connections

	up := httptest.NewServer(echoReplica("up"))
	t.Cleanup(up.Close)

	g, err := New(Config{
		Replicas: []ReplicaSpec{
			{Name: "dead", Addr: deadAddr},
			{Name: "up", Addr: strings.TrimPrefix(up.URL, "http://")},
		},
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	ts := gwServer(t, g)

	id := traceIDTargeting(t, []string{"dead", "up"}, "dead")
	resp, body := postTraced(t, ts.URL+"/v1/check", id, "{}")
	if resp.StatusCode != http.StatusOK || body != "up" {
		t.Fatalf("status %d body %q, want 200 from up", resp.StatusCode, body)
	}
	var deadRep *replica
	for _, r := range g.replicas {
		if r.name == "dead" {
			deadRep = r
		}
	}
	if st := deadRep.state(); st != StateDegraded {
		t.Fatalf("dead replica state %v after failed forward, want degraded", st)
	}
}

// TestRetryDeniedOnEmptyBudget pins the amplification bound: with the
// budget dry, a transport failure is answered 502 instead of doubling
// traffic onto the surviving replica.
func TestRetryDeniedOnEmptyBudget(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadAddr := strings.TrimPrefix(dead.URL, "http://")
	dead.Close()
	up := httptest.NewServer(echoReplica("up"))
	t.Cleanup(up.Close)

	g, reg := fakeFleet(t, map[string]http.HandlerFunc{"up": echoReplica("up")}, func(c *Config) {
		c.Replicas = append(c.Replicas, ReplicaSpec{Name: "dead", Addr: deadAddr})
	})
	ts := gwServer(t, g)
	g.budget.mu.Lock()
	g.budget.tokens = 0
	g.budget.mu.Unlock()

	id := traceIDTargeting(t, []string{"dead", "up"}, "dead")
	resp, _ := postTraced(t, ts.URL+"/v1/check", id, "{}")
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502 with empty retry budget", resp.StatusCode)
	}
	if n := counterValue(t, reg, MetricRetryBudgetSpent); n != 1 {
		t.Fatalf("budget-exhausted counter %d, want 1", n)
	}
	if n := counterValue(t, reg, MetricRetries); n != 0 {
		t.Fatalf("retries counter %d, want 0", n)
	}
}

func TestRetryBudgetBucket(t *testing.T) {
	b := retryBudget{ratio: 0.5, cap: 2, tokens: 2}
	if !b.spend() || !b.spend() {
		t.Fatal("full bucket denied a spend")
	}
	if b.spend() {
		t.Fatal("empty bucket allowed a spend")
	}
	b.earn()
	if b.spend() {
		t.Fatal("half a token allowed a spend")
	}
	b.earn()
	if !b.spend() {
		t.Fatal("earned token denied")
	}
	for i := 0; i < 10; i++ {
		b.earn()
	}
	if b.tokens != b.cap {
		t.Fatalf("bucket %v exceeds cap %v", b.tokens, b.cap)
	}
}

// TestBackpressurePassthrough pins the unified Retry-After contract:
// replica backpressure is relayed untouched when the replica set the
// header, and gets the gateway default otherwise — never retried.
func TestBackpressurePassthrough(t *testing.T) {
	t.Run("429 with replica header", func(t *testing.T) {
		h := func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/readyz" {
				io.WriteString(w, "ready\n{\"status\":\"ready\"}\n")
				return
			}
			w.Header().Set("Retry-After", "7")
			http.Error(w, "shed", http.StatusTooManyRequests)
		}
		g, reg := fakeFleet(t, map[string]http.HandlerFunc{"bp": h}, nil)
		ts := gwServer(t, g)
		resp, _ := postTraced(t, ts.URL+"/v1/check", "", "{}")
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("status %d, want 429", resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "7" {
			t.Fatalf("Retry-After %q, want the replica's own %q", ra, "7")
		}
		if n := counterValue(t, reg, telemetry.Label(MetricPassthrough, "code", "429")); n != 1 {
			t.Fatalf("429 passthrough counter %d, want 1", n)
		}
		if n := counterValue(t, reg, MetricRetries); n != 0 {
			t.Fatalf("backpressure was retried %d times, want 0", n)
		}
	})
	t.Run("503 without replica header", func(t *testing.T) {
		h := func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/readyz" {
				io.WriteString(w, "ready\n{\"status\":\"ready\"}\n")
				return
			}
			http.Error(w, "draining", http.StatusServiceUnavailable)
		}
		g, _ := fakeFleet(t, map[string]http.HandlerFunc{"bp": h}, func(c *Config) {
			c.RetryAfter = 1500 * time.Millisecond
		})
		ts := gwServer(t, g)
		resp, _ := postTraced(t, ts.URL+"/v1/check", "", "{}")
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status %d, want 503", resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra != serve.RetryAfterHeader(1500*time.Millisecond) {
			t.Fatalf("Retry-After %q, want gateway default %q", ra, serve.RetryAfterHeader(1500*time.Millisecond))
		}
	})
}

// TestRetryAfterFormat is the format regression pin for the single
// source of the Retry-After header: whole seconds, rounded up, never
// below one — shared by the dvserve shed path and every gateway
// backpressure answer.
func TestRetryAfterFormat(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want string
	}{
		{0, "1"},
		{10 * time.Millisecond, "1"},
		{time.Second, "1"},
		{1001 * time.Millisecond, "2"},
		{1500 * time.Millisecond, "2"},
		{2 * time.Second, "2"},
		{9500 * time.Millisecond, "10"},
	} {
		if got := serve.RetryAfterHeader(tc.d); got != tc.want {
			t.Errorf("RetryAfterHeader(%v) = %q, want %q", tc.d, got, tc.want)
		}
	}
}

// TestShedWhenSaturated sheds 429 once every in-rotation replica is at
// its in-flight cap.
func TestShedWhenSaturated(t *testing.T) {
	g, reg := fakeFleet(t, map[string]http.HandlerFunc{
		"a": echoReplica("a"), "b": echoReplica("b"),
	}, func(c *Config) { c.MaxInflight = 1 })
	ts := gwServer(t, g)
	for _, r := range g.replicas {
		r.inflight.Add(1)
	}
	resp, _ := postTraced(t, ts.URL+"/v1/check", "", "{}")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After %q, want %q", ra, "1")
	}
	if n := counterValue(t, reg, MetricShed); n != 1 {
		t.Fatalf("shed counter %d, want 1", n)
	}
	for _, r := range g.replicas {
		r.inflight.Add(-1)
	}
	resp, _ = postTraced(t, ts.URL+"/v1/check", "", "{}")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d after load released, want 200", resp.StatusCode)
	}
}

// TestUnroutableFleet answers 503 when every replica is drained, and
// the gateway's own /readyz flips to unroutable.
func TestUnroutableFleet(t *testing.T) {
	g, reg := fakeFleet(t, map[string]http.HandlerFunc{"a": echoReplica("a")}, nil)
	ts := gwServer(t, g)
	for _, r := range g.replicas {
		r.mu.Lock()
		r.hm.state = StateDrained
		r.mu.Unlock()
	}
	resp, _ := postTraced(t, ts.URL+"/v1/check", "", "{}")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After %q, want %q", ra, "1")
	}
	if n := counterValue(t, reg, MetricUnroutable); n != 1 {
		t.Fatalf("unroutable counter %d, want 1", n)
	}
	rz, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(rz.Body)
	rz.Body.Close()
	if rz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("gateway /readyz status %d, want 503", rz.StatusCode)
	}
	if !strings.HasPrefix(string(raw), "unroutable\n") {
		t.Fatalf("gateway /readyz body %q, want unroutable first line", raw)
	}
}
