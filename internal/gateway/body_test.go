package gateway

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"

	"deepvalidation/internal/serve"
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
