package gateway

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"deepvalidation/internal/artifact"
	"deepvalidation/internal/faultinject"
	"deepvalidation/internal/obs"
)

// RolloutRequest is the body of POST /admin/rollout: the staged
// validator artifact to push across the fleet.
type RolloutRequest struct {
	Artifact string `json:"artifact"`
}

// RolloutReplica reports one replica's outcome within a rollout.
type RolloutReplica struct {
	Name       string `json:"name"`
	Switched   bool   `json:"switched"`              // new artifact written and reloaded
	Converged  bool   `json:"converged"`             // /readyz reported the target checksum
	RolledBack bool   `json:"rolled_back,omitempty"` // restored to the prior artifact after a halt
	Error      string `json:"error,omitempty"`
}

// RolloutResponse is the body answering POST /admin/rollout.
type RolloutResponse struct {
	TargetSHA256 string           `json:"target_sha256"`
	Completed    bool             `json:"completed"`
	Replicas     []RolloutReplica `json:"replicas"`
	Error        string           `json:"error,omitempty"`
}

// Rollout pushes the staged validator artifact across the fleet, one
// replica at a time:
//
//  1. Preconditions: the staged file must be a valid checksummed
//     container (its payload SHA-256 is the convergence target), and
//     every replica must be in rotation with a configured
//     ValidatorPath. A fleet that is already degraded does not get a
//     rollout on top.
//  2. Per replica, in configuration order: back up the current artifact
//     bytes in memory, atomically write the staged bytes over the
//     replica's validator path, POST /v1/reload (bounded retries), and
//     poll /readyz until its ValidatorSHA256 equals the target.
//  3. On a replica's reload-failure streak: restore that replica's disk
//     file, halt, and roll back every already-switched replica in
//     reverse order (restore bytes, reload, verify the prior checksum)
//     — so a halted rollout leaves the whole fleet serving the prior
//     artifact.
//
// One rollout runs at a time; concurrent requests serialize.
func (g *Gateway) Rollout(stagedPath string) (RolloutResponse, int) {
	g.rolloutMu.Lock()
	defer g.rolloutMu.Unlock()

	resp := RolloutResponse{}
	// Validate the staged artifact before touching any replica: ReadFile
	// checksums the payload, so a torn or corrupt staged file is
	// rejected here, not discovered halfway through the fleet.
	info, _, err := artifact.ReadFile(stagedPath)
	if err != nil {
		resp.Error = fmt.Sprintf("staged artifact rejected: %v", err)
		return resp, http.StatusBadRequest
	}
	if info.Legacy || info.Header.PayloadSHA256 == "" {
		resp.Error = "staged artifact is a legacy bare gob with no checksum; rollout convergence cannot be verified"
		return resp, http.StatusBadRequest
	}
	if info.Header.Kind != artifact.KindValidator {
		resp.Error = fmt.Sprintf("staged artifact is kind %q, want %q", info.Header.Kind, artifact.KindValidator)
		return resp, http.StatusBadRequest
	}
	target := info.Header.PayloadSHA256
	resp.TargetSHA256 = target
	// Raw container bytes are what lands on each replica's disk, so the
	// on-disk payload checksum is bit-identical to the target.
	raw, err := os.ReadFile(stagedPath)
	if err != nil {
		resp.Error = fmt.Sprintf("reading staged artifact: %v", err)
		return resp, http.StatusBadRequest
	}
	for _, r := range g.replicas {
		if r.validatorPath == "" {
			resp.Error = fmt.Sprintf("replica %s has no validator path configured; rollout needs every replica writable", r.name)
			return resp, http.StatusConflict
		}
		if !r.state().InRotation() {
			resp.Error = fmt.Sprintf("replica %s is %s; rollout requires the whole fleet in rotation", r.name, r.state())
			return resp, http.StatusConflict
		}
	}

	g.emitRollout(obs.LevelInfo, fmt.Sprintf("rollout started: %d replicas -> %s", len(g.replicas), shortSHA(target)), "", map[string]any{
		"target_sha256": target, "replicas": len(g.replicas), "artifact": stagedPath,
	})

	// switched tracks completed replicas with the backups a rollback
	// would restore.
	type switched struct {
		rep      *replica
		backup   []byte
		priorSHA string
	}
	var done []switched
	resp.Replicas = make([]RolloutReplica, 0, len(g.replicas))
	for _, r := range g.replicas {
		out := RolloutReplica{Name: r.name}
		backup, priorSHA, err := g.switchReplica(r, raw, target)
		if err == nil {
			out.Switched, out.Converged = true, true
			done = append(done, switched{rep: r, backup: backup, priorSHA: priorSHA})
			resp.Replicas = append(resp.Replicas, out)
			g.emitRollout(obs.LevelInfo, fmt.Sprintf("rollout: replica %s converged on %s", r.name, shortSHA(target)), "", map[string]any{
				"replica": r.name, "target_sha256": target,
			})
			continue
		}
		// Reload-failure streak on this replica: halt and roll back.
		out.Error = err.Error()
		resp.Replicas = append(resp.Replicas, out)
		g.rolloutsFailed.Inc()
		g.emitRollout(obs.LevelError, fmt.Sprintf("rollout halted at replica %s; rolling back %d switched replicas", r.name, len(done)), err.Error(), map[string]any{
			"replica": r.name, "target_sha256": target, "switched": len(done),
		})
		for j := len(done) - 1; j >= 0; j-- {
			d := done[j]
			rbErr := g.restoreReplica(d.rep, d.backup, d.priorSHA)
			g.rollbacks.Inc()
			for k := range resp.Replicas {
				if resp.Replicas[k].Name == d.rep.name {
					resp.Replicas[k].RolledBack = rbErr == nil
					resp.Replicas[k].Converged = false
					if rbErr != nil {
						resp.Replicas[k].Error = "rollback failed: " + rbErr.Error()
					}
				}
			}
			if rbErr != nil {
				g.emitRollout(obs.LevelError, fmt.Sprintf("rollback of replica %s failed", d.rep.name), rbErr.Error(), map[string]any{"replica": d.rep.name})
			} else {
				g.emitRollout(obs.LevelWarn, fmt.Sprintf("rolled back replica %s to %s", d.rep.name, shortSHA(d.priorSHA)), "", map[string]any{
					"replica": d.rep.name, "prior_sha256": d.priorSHA,
				})
			}
		}
		resp.Error = fmt.Sprintf("rollout halted at replica %s and rolled back: %v", r.name, err)
		return resp, http.StatusInternalServerError
	}
	resp.Completed = true
	g.rollouts.Inc()
	g.emitRollout(obs.LevelInfo, fmt.Sprintf("rollout completed: %d replicas on %s", len(g.replicas), shortSHA(target)), "", map[string]any{
		"target_sha256": target, "replicas": len(g.replicas),
	})
	return resp, http.StatusOK
}

// switchReplica performs one replica's staged switch: back up the
// current artifact, write the staged bytes, reload, and verify
// convergence. On failure the replica's own disk file is restored (the
// replica never reloaded, so it still serves — and reports — the prior
// artifact) and the error propagates to halt the rollout.
func (g *Gateway) switchReplica(r *replica, raw []byte, target string) (backup []byte, priorSHA string, err error) {
	if err := faultinject.Check(faultinject.PointGatewayRollout); err != nil {
		return nil, "", err
	}
	backup, err = os.ReadFile(r.validatorPath)
	if err != nil {
		return nil, "", fmt.Errorf("backing up %s: %w", r.validatorPath, err)
	}
	priorSHA = r.validatorSHA()
	if err := atomicWriteFile(r.validatorPath, raw); err != nil {
		return nil, "", fmt.Errorf("staging artifact on %s: %w", r.name, err)
	}
	if err := g.reloadAndVerify(r, target); err != nil {
		// Put the prior bytes back so the replica's disk matches what it
		// is still serving; a later manual reload must not pick up the
		// artifact this rollout failed to land.
		if restoreErr := atomicWriteFile(r.validatorPath, backup); restoreErr != nil {
			return nil, "", fmt.Errorf("%w (and restoring the prior artifact failed: %v)", err, restoreErr)
		}
		return nil, "", err
	}
	return backup, priorSHA, nil
}

// restoreReplica rolls one switched replica back: prior bytes on disk,
// reload, and (when the prior artifact had a checksum) convergence back
// onto it.
func (g *Gateway) restoreReplica(r *replica, backup []byte, priorSHA string) error {
	if err := atomicWriteFile(r.validatorPath, backup); err != nil {
		return fmt.Errorf("restoring %s: %w", r.validatorPath, err)
	}
	return g.reloadAndVerify(r, priorSHA)
}

// reloadAndVerify POSTs /v1/reload with bounded retries, then polls the
// replica's /readyz until its validator checksum equals target (skipped
// when target is empty — a legacy prior artifact has no checksum to
// converge on).
func (g *Gateway) reloadAndVerify(r *replica, target string) error {
	var lastErr error
	for attempt := 1; ; attempt++ {
		lastErr = g.postReload(r)
		if lastErr == nil {
			break
		}
		if attempt >= g.cfg.ReloadRetries {
			return fmt.Errorf("reload failed after %d attempts: %w", attempt, lastErr)
		}
	}
	if target == "" {
		return nil
	}
	for attempt := 1; ; attempt++ {
		body, err := g.fetchReadyz(r, g.cfg.ProbeTimeout)
		if err == nil && body.ValidatorSHA256 == target {
			// Feed the fresh identity into the replica's status so
			// /admin/replicas reflects the converged fleet immediately.
			ok := body.Status == "ready"
			g.observe(r, ok, &body, "")
			return nil
		}
		if attempt >= g.cfg.RolloutVerifyAttempts {
			got := "unreachable"
			if err == nil {
				got = shortSHA(body.ValidatorSHA256)
			}
			return fmt.Errorf("replica %s did not converge on %s after %d polls (last saw %s)", r.name, shortSHA(target), attempt, got)
		}
		time.Sleep(g.cfg.RolloutVerifyDelay)
	}
}

// postReload POSTs the replica's /v1/reload and demands a 200.
func (g *Gateway) postReload(r *replica) error {
	req, err := http.NewRequest(http.MethodPost, r.base+"/v1/reload", nil)
	if err != nil {
		return err
	}
	client := *g.client
	client.Timeout = g.cfg.ProxyTimeout
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("reload answered %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return nil
}

// atomicWriteFile lands data at path with the repository's atomic-write
// discipline (temp file in the same directory, fsync, rename, directory
// fsync) so a crash mid-rollout leaves either the old artifact or the
// new one, never a hybrid.
func atomicWriteFile(path string, data []byte) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".rollout-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if _, err = tmp.Write(data); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	artifact.SyncDir(dir)
	return nil
}

// emitRollout files one rollout wide event.
func (g *Gateway) emitRollout(level obs.Level, msg, errStr string, extra map[string]any) {
	g.events.Emit(obs.Event{Type: obs.TypeRollout, Level: level, Msg: msg, Err: errStr, Extra: extra})
}

// shortSHA abbreviates a checksum for log lines.
func shortSHA(sha string) string {
	if len(sha) > 12 {
		return sha[:12]
	}
	if sha == "" {
		return "(none)"
	}
	return sha
}

// handleRollout is POST /admin/rollout.
func (g *Gateway) handleRollout(w http.ResponseWriter, r *http.Request) {
	if !obs.AllowMethod(w, r, http.MethodPost) {
		return
	}
	var req RolloutRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		obs.WriteError(w, http.StatusBadRequest, "decoding rollout request: "+err.Error())
		return
	}
	if req.Artifact == "" {
		obs.WriteError(w, http.StatusBadRequest, `rollout request needs {"artifact": "/path/to/staged.dvart"}`)
		return
	}
	resp, status := g.Rollout(req.Artifact)
	obs.WriteJSON(w, status, resp)
}
