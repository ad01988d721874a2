// Package faultinject is the chaos-testing seam of this repository: a
// registry of named fault points that production code consults at the
// moments most likely to fail in the field — artifact writes between
// temp file and rename, reload swaps, batch scoring. Disarmed (the
// default), a point costs one atomic pointer load and no allocation;
// armed, it runs an arbitrary injected function, so tests can simulate
// crashes (return an error), slow paths (sleep, then return nil), or
// flaky behavior (fail N times, then succeed).
//
// Points can also be armed from outside the process via the DV_FAULT
// environment variable — a comma-separated list of point names that
// fail with ErrInjected — so shell-level chaos suites
// (scripts/chaos_smoke.sh) can drive the real binaries through their
// failure paths:
//
//	DV_FAULT=artifact.rename dvtrain -out model.gob   # save must fail,
//	                                                  # old artifact intact
//
// The package also carries the file-corruption helpers (FlipBit,
// Truncate) the corruption-matrix tests are built on.
package faultinject

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// ErrInjected is the error returned by points armed without a custom
// function (including every point armed via DV_FAULT).
var ErrInjected = errors.New("faultinject: injected fault")

// Names of the fault points compiled into production code. Tests may
// arm ad-hoc names too; these constants exist so call sites and tests
// cannot drift apart.
const (
	// PointArtifactRename fires after an artifact's temp file is fully
	// written and synced, immediately before the rename that publishes
	// it — the crash window atomic writes must tolerate.
	PointArtifactRename = "artifact.rename"
	// PointArtifactWrite fires before the temp file's payload is
	// written, simulating a crash mid-save with nothing durable yet.
	PointArtifactWrite = "artifact.write"
	// PointServeReload fires at the top of a serving reload, before the
	// loader runs — the injectable "reload is failing/slow" seam.
	PointServeReload = "serve.reload"
	// PointServeBatch fires before a micro-batch is scored; an injected
	// error forces the batch onto the per-request fallback path.
	PointServeBatch = "serve.batch"
	// PointGatewayRoute fires before the gateway forwards a request to
	// the replica routing chose, simulating a connect failure so the
	// retry-budget path can be driven deterministically.
	PointGatewayRoute = "gateway.route"
	// PointGatewayProbe fires before a gateway health probe, forcing the
	// probe to count as a failure — the "replica unreachable" shape
	// without killing a process.
	PointGatewayProbe = "gateway.probe"
	// PointGatewayRollout fires before each per-replica switch of a
	// staged rollout; armed with a count it halts the rollout midway and
	// exercises the rollback path.
	PointGatewayRollout = "gateway.rollout"
)

// points holds the armed fault functions. The map is copy-on-write
// behind an atomic pointer: Check (the hot path) is a single load, and
// Arm and Reset (test-time only) swap it under a lock.
var (
	armMu  sync.Mutex
	points atomic.Pointer[map[string]func() error]
)

func init() {
	ArmFromSpec(os.Getenv("DV_FAULT"))
}

// ArmFromSpec arms points from a DV_FAULT-style spec: a comma-separated
// list of point names, each optionally suffixed `:N` to fail only the
// first N checks (ArmCount) instead of failing forever. Unparseable
// counts arm the bare name, keeping the env path forgiving — chaos
// scripts prefer an always-failing point over a silently disarmed one.
func ArmFromSpec(spec string) {
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		if name, count, ok := strings.Cut(entry, ":"); ok {
			if n, err := strconv.ParseInt(count, 10, 64); err == nil && n > 0 {
				ArmCount(name, n)
				continue
			}
			entry = name
		}
		Arm(entry, nil)
	}
}

// Check consults the named fault point: nil when disarmed (the fast
// path), otherwise whatever the armed function returns. Production
// call sites treat a non-nil result as the failure of the operation
// the point guards.
func Check(name string) error {
	m := points.Load()
	if m == nil {
		return nil
	}
	fn, ok := (*m)[name]
	if !ok {
		return nil
	}
	if fn == nil {
		return fmt.Errorf("%w at %s", ErrInjected, name)
	}
	return fn()
}

// Arm installs fn at the named point. A nil fn arms the point with
// ErrInjected. Arming is test-time machinery; it clones the point map
// so concurrent Check calls never see a partial update.
func Arm(name string, fn func() error) {
	armMu.Lock()
	defer armMu.Unlock()
	next := make(map[string]func() error)
	if m := points.Load(); m != nil {
		for k, v := range *m {
			next[k] = v
		}
	}
	next[name] = fn
	points.Store(&next)
}

// ArmCount arms the point to fail with ErrInjected for the first n
// Check calls and succeed afterwards — the "flaky until it isn't"
// shape reload-retry tests need. It is safe under concurrent Check.
func ArmCount(name string, n int64) {
	var remaining atomic.Int64
	remaining.Store(n)
	Arm(name, func() error {
		if remaining.Add(-1) >= 0 {
			return fmt.Errorf("%w at %s", ErrInjected, name)
		}
		return nil
	})
}

// Reset disarms every point. Tests that arm points should
// t.Cleanup(faultinject.Reset).
func Reset() {
	armMu.Lock()
	defer armMu.Unlock()
	points.Store(nil)
}

// FlipBit flips one bit of the file in place — the single-event-upset
// shape of the corruption matrix. offset addresses the byte, bit the
// bit within it (0..7).
func FlipBit(path string, offset int64, bit uint) error {
	if bit > 7 {
		return fmt.Errorf("faultinject: bit %d outside 0..7", bit)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("faultinject: flipping bit: %w", err)
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], offset); err != nil {
		f.Close()
		return fmt.Errorf("faultinject: reading byte %d of %s: %w", offset, path, err)
	}
	b[0] ^= 1 << bit
	if _, err := f.WriteAt(b[:], offset); err != nil {
		f.Close()
		return fmt.Errorf("faultinject: writing byte %d of %s: %w", offset, path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("faultinject: closing %s: %w", path, err)
	}
	return nil
}

// Truncate cuts the file to size bytes — the torn-write shape of the
// corruption matrix.
func Truncate(path string, size int64) error {
	if err := os.Truncate(path, size); err != nil {
		return fmt.Errorf("faultinject: truncating %s: %w", path, err)
	}
	return nil
}
