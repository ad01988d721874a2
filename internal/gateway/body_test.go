package gateway

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"deepvalidation/internal/serve"
	"deepvalidation/internal/trace"
)

// rawPost sends one POST over a fresh TCP connection with exactly the
// framing given — a Content-Length that need not match the body, or
// chunked encoding when declared < 0 — and returns the response status
// and body.
func rawPost(t *testing.T, addr, path string, body []byte, declared int) (int, string) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var req bytes.Buffer
	fmt.Fprintf(&req, "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\n", path, addr)
	if declared < 0 {
		fmt.Fprintf(&req, "Transfer-Encoding: chunked\r\n\r\n%x\r\n%s\r\n0\r\n\r\n", len(body), body)
	} else {
		fmt.Fprintf(&req, "Content-Length: %d\r\n\r\n%s", declared, body)
	}
	if _, err := conn.Write(req.Bytes()); err != nil {
		t.Fatal(err)
	}
	// A short body ends only when the connection does. Half-close only
	// then: the server cancels a request whose client hangs up.
	if declared > len(body) {
		if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data)
}

// TestReadBodyBothTiers runs one body-framing table against a dvserve
// replica and against the gateway in front of it. The gateway reads
// bodies through serve.ReadBody and dvserve streams them, both under
// the same cap and through the same error writer, so every case must
// get the same status and the same body from either tier.
func TestReadBodyBothTiers(t *testing.T) {
	const limit = 4096
	g, procs, _ := newFleet(t, 1,
		func(c *Config) { c.MaxBodyBytes = limit },
		func(c *serve.Config) { c.MaxBodyBytes = limit })
	gw := gwServer(t, g)
	tiers := []struct{ name, addr string }{
		{"dvserve", procs[0].addr},
		{"gateway", strings.TrimPrefix(gw.URL, "http://")},
	}
	imgs, _ := testImages(5, 1)
	body := checkBody(t, imgs[0])
	atCap := append(bytes.Clone(body), bytes.Repeat([]byte(" "), limit-len(body))...)
	overCap := append(bytes.Clone(atCap), ' ')
	const tooLarge = `{"error":"request body exceeds 4096 bytes"}` + "\n"

	cases := []struct {
		name       string
		body       []byte
		declared   int // Content-Length sent; -1 for chunked
		wantStatus int
		wantBody   string // exact error body; "" for a verdict
	}{
		{"declared length", body, len(body), http.StatusOK, ""},
		{"chunked", body, -1, http.StatusOK, ""},
		{"exactly at the cap", atCap, len(atCap), http.StatusOK, ""},
		{"one byte over the cap", overCap, len(overCap), http.StatusRequestEntityTooLarge, tooLarge},
		{"chunked over the cap", overCap, -1, http.StatusRequestEntityTooLarge, tooLarge},
		{"shorter than declared", body, len(body) + 100, http.StatusBadRequest, `{"error":"reading request body: unexpected EOF"}` + "\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var verdict string
			for _, tier := range tiers {
				status, got := rawPost(t, tier.addr, "/v1/check", tc.body, tc.declared)
				if status != tc.wantStatus {
					t.Fatalf("%s: status %d, want %d (body %q)", tier.name, status, tc.wantStatus, got)
				}
				switch {
				case tc.wantBody != "":
					if got != tc.wantBody {
						t.Fatalf("%s: body %q, want %q", tier.name, got, tc.wantBody)
					}
				case verdict == "":
					verdict = got
				case got != verdict:
					t.Fatalf("%s: verdict %q differs from dvserve's %q", tier.name, got, verdict)
				}
			}
		})
	}
}

// TestDeclaredOversizeRefusedUnread: a request whose Content-Length is
// over the cap is answered 413 before the gateway reads it or makes a
// buffer for it, so one header cannot make a request cost the cap in
// heap. It allocates under 64 KiB per request (a buffer for the
// declared length would be 8 MiB).
func TestDeclaredOversizeRefusedUnread(t *testing.T) {
	g := benchGateway(t, nil)
	h := g.Handler()
	oneRequest := func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader("{}"))
		req.ContentLength = g.cfg.MaxBodyBytes + 1
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("declared %d bytes: status %d, want 413: %s", req.ContentLength, rec.Code, rec.Body.String())
		}
	}
	oneRequest()
	if raceDetectorEnabled {
		return // the race detector's instrumentation allocates
	}
	const n = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		oneRequest()
	}
	runtime.ReadMemStats(&after)
	perRequest := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("%d bytes allocated per refused request", perRequest)
	if perRequest >= 64<<10 {
		t.Errorf("refusing a declared-oversized body allocates %d bytes per request, want < %d", perRequest, 64<<10)
	}
}

// TestOversizedReplicaResponse caps the gateway's read of a replica
// response at MaxBodyBytes: a replica streaming more (chunked, so no
// Content-Length warns of it) is a transport failure on the 502 path,
// not an unbounded buffer.
func TestOversizedReplicaResponse(t *testing.T) {
	const limit = 1024
	streamer := func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			io.WriteString(w, "ready\n{\"status\":\"ready\"}\n")
			return
		}
		chunk := bytes.Repeat([]byte("x"), 256)
		for i := 0; i < 4*limit/len(chunk); i++ {
			if _, err := w.Write(chunk); err != nil {
				return
			}
			w.(http.Flusher).Flush()
		}
	}
	g, reg := fakeFleet(t, map[string]http.HandlerFunc{"big": streamer}, func(c *Config) { c.MaxBodyBytes = limit })
	ts := gwServer(t, g)
	resp, body := post(t, ts.URL+"/v1/check", []byte("{}"))
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d with a %d-byte body, want 502", resp.StatusCode, len(body))
	}
	if !strings.Contains(body, "reading replica response") {
		t.Fatalf("502 body %q does not name the oversized response", body)
	}
	if n := counterValue(t, reg, MetricBadGateway); n != 1 {
		t.Fatalf("bad-gateway counter %d, want 1", n)
	}
}

// TestForwardHeadersImmutable hands every forward's header map to a
// transport that keeps reading it after the answer, as http.Transport's
// read loop may, while concurrent clients send untraced, traced and
// unusually typed requests. No map may change once handed over (under
// -race a write is also a reported race), and untraced JSON forwards
// must share one map, so that they allocate none.
func TestForwardHeadersImmutable(t *testing.T) {
	const clients, perClient = 4, 16
	g, _ := fakeFleet(t, map[string]http.HandlerFunc{"a": echoReplica("a")}, nil)
	var (
		mu      sync.Mutex
		shared  = map[uintptr]bool{} // maps seen on untraced JSON forwards
		readers sync.WaitGroup
		changed atomic.Int64
	)
	g.transport = roundTripFunc(func(req *http.Request) (*http.Response, error) {
		h := req.Header
		snap := h.Clone()
		if req.Header.Get(trace.HeaderTraceID) == "" && h.Get("Content-Type") == "application/json" {
			mu.Lock()
			shared[reflect.ValueOf(h).Pointer()] = true
			mu.Unlock()
		}
		if req.Body != nil {
			_, _ = io.Copy(io.Discard, req.Body)
			req.Body.Close()
		}
		readers.Add(1)
		go func() { // the read loop, still reading after the answer
			defer readers.Done()
			for range 50 {
				if !reflect.DeepEqual(map[string][]string(h), map[string][]string(snap)) {
					changed.Add(1)
					return
				}
				runtime.Gosched()
			}
		}()
		return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: http.NoBody, Request: req}, nil
	})
	ts := gwServer(t, g)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range perClient {
				req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/check", strings.NewReader(fmt.Sprintf("%d/%d", c, s)))
				if err != nil {
					t.Error(err)
					return
				}
				switch s % 4 {
				case 0, 1:
					req.Header.Set("Content-Type", "application/json")
				case 2:
					req.Header.Set("Content-Type", "application/json")
					req.Header.Set(trace.HeaderTraceID, fmt.Sprintf("trace-%d-%d", c, s))
				case 3:
					req.Header.Set("Content-Type", fmt.Sprintf("text/x-client-%d", c))
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status %d, want 200", resp.StatusCode)
				}
			}
		}()
	}
	wg.Wait()
	readers.Wait()
	if n := changed.Load(); n != 0 {
		t.Fatalf("%d forwarded header maps changed after the transport had them", n)
	}
	// Unusual Content-Types replace the shared map now and then, so a
	// few maps may serve the JSON forwards, but never one per forward.
	if n, forwards := len(shared), clients*perClient/2; n > forwards/2 {
		t.Fatalf("%d header maps for %d untraced JSON forwards, want them shared", n, forwards)
	}
}

// TestRecordsCarryTheirOwnAnswers sends distinct bodies from concurrent
// clients through a fleet where one replica fails every request with
// 500 and the other echoes the body back, so about half the requests
// retry, their record's first response replaced by the second. Records
// recycle across the clients; every client must get back exactly the
// body it sent, so no record is recycled, and no response read, while
// another request still uses it.
func TestRecordsCarryTheirOwnAnswers(t *testing.T) {
	const clients, perClient = 4, 24
	fail := func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			io.WriteString(w, "ready\n{\"status\":\"ready\"}\n")
			return
		}
		_, _ = io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusInternalServerError)
		io.WriteString(w, `{"error":"replica failure"}`)
	}
	echo := func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			io.WriteString(w, "ready\n{\"status\":\"ready\"}\n")
			return
		}
		b, err := io.ReadAll(r.Body) // whole, before the answer closes the body
		if err != nil {
			t.Error(err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(b)
	}
	g, reg := fakeFleet(t, map[string]http.HandlerFunc{"fail": fail, "echo": echo}, func(c *Config) {
		c.RetryBudgetCap = clients * perClient // every failure may retry
	})
	ts := gwServer(t, g)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for s := range perClient {
				sent := randomBody(rng, 1+rng.Intn(96<<10))
				resp, err := http.Post(ts.URL+"/v1/batch", "application/octet-stream", bytes.NewReader(sent))
				if err != nil {
					t.Error(err)
					return
				}
				got, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(got, sent) {
					t.Errorf("client %d request %d: status %d, %d bytes back for %d sent, or other bytes (%v)", c, s, resp.StatusCode, len(got), len(sent), err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := counterValue(t, reg, MetricRetries); n == 0 {
		t.Fatal("no request retried; the test did not replace any response")
	}
}
