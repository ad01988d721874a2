// Package trace is the request-scoped observability layer for the
// serving path: per-verdict trace IDs and span trees, a deterministic
// head sampler, a bounded trace store, a flight recorder of recent
// verdicts, and a drift watch comparing the live per-layer discrepancy
// distribution against the fit-time reference persisted in the
// Validator. The paper's diagnostic signal is the per-layer
// discrepancy d_i (Eq. 2) — this package is what keeps d_i visible per
// request in production instead of collapsing it into the joint score.
//
// Like internal/telemetry, everything here is nil-safe: a nil *Store,
// *Flight, or *DriftWatch no-ops on every method, so the disabled path
// stays allocation-free and branch-light.
package trace

import (
	"crypto/rand"
	"encoding/hex"
	"hash/fnv"
	"math"
	"strconv"
	"strings"
)

// HeaderTraceID is the HTTP request/response header carrying the trace
// ID through the serving path (X-DV-Trace-Id). It is spelled in Go's
// canonical form, which is what goes on the wire, so Header.Get on it
// does not allocate a canonicalized copy of the key per request.
const HeaderTraceID = "X-Dv-Trace-Id"

// maxIDLen bounds accepted trace IDs; anything longer is rejected so a
// hostile client cannot use the header as a memory amplifier.
const maxIDLen = 64

// NewID returns a fresh random trace ID: 16 lowercase hex characters.
func NewID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is unrecoverable; fall back to a fixed ID
		// rather than panicking the serving path.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// ValidID reports whether s is an acceptable trace ID: 1–64 characters
// from [A-Za-z0-9._-]. The charset is deliberately narrow — IDs are
// echoed into response headers, URL paths (/debug/dv/trace/{id}), and
// JSON, so nothing that needs escaping is allowed.
func ValidID(s string) bool {
	if len(s) == 0 || len(s) > maxIDLen {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z':
		case c >= 'A' && c <= 'Z':
		case c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

// FromHeader parses a client-supplied trace-ID header value: surrounding
// whitespace is trimmed, then the result must pass ValidID. It returns
// the cleaned ID and whether it was usable; an empty or invalid header
// yields ("", false) and the caller generates an ID instead.
func FromHeader(v string) (string, bool) {
	v = strings.TrimSpace(v)
	if !ValidID(v) {
		return "", false
	}
	return v, true
}

// ItemID derives the trace ID for item i of a batch request from the
// request's base ID, as base.i — '.' keeps the result a ValidID and
// safe in a URL path segment.
func ItemID(base string, i int) string {
	return base + "." + strconv.Itoa(i)
}

// Sampler decides deterministically whether a trace ID is head-sampled:
// the FNV-1a hash of the ID is compared against a threshold derived
// from the sampling rate, so the same ID always gets the same decision
// regardless of process, replica, or time — replaying a request with
// the same injected ID reproduces its sampling fate.
type Sampler struct {
	threshold uint64
	always    bool
}

// NewSampler returns a sampler keeping approximately rate of IDs.
// rate <= 0 returns nil (never sample; nil-safe), rate >= 1 always
// samples.
func NewSampler(rate float64) *Sampler {
	if rate <= 0 || math.IsNaN(rate) {
		return nil
	}
	if rate >= 1 {
		return &Sampler{always: true}
	}
	return &Sampler{threshold: uint64(rate * float64(math.MaxUint64))}
}

// Sample reports whether the ID is kept. A nil Sampler keeps nothing.
func (s *Sampler) Sample(id string) bool {
	if s == nil {
		return false
	}
	if s.always {
		return true
	}
	h := fnv.New64a()
	h.Write([]byte(id))
	return h.Sum64() < s.threshold
}

// Decide resolves one request's trace identity from its X-DV-Trace-Id
// header value: a valid client ID is always traced (the caller
// injected it to follow this exact request); otherwise a fresh ID is
// minted and head-sampled. A nil sampler — tracing off — returns
// ("", false) and mints nothing.
func (s *Sampler) Decide(header string) (id string, traced bool) {
	if s == nil {
		return "", false
	}
	if hid, ok := FromHeader(header); ok {
		return hid, true
	}
	id = NewID()
	return id, s.Sample(id)
}
