package deepvalidation

// Tests for Detector.AttachEvents: the detector must emit one
// wide event per quarantined verdict, stay silent on the healthy path,
// never change verdicts, and detach cleanly (hot reload re-attaches).

import (
	"math"
	"testing"

	"deepvalidation/internal/obs"
)

func TestAttachEventsQuarantineFlow(t *testing.T) {
	det := chaosBuild(t)
	log := obs.New(obs.Config{})

	// Healthy path: attaching the event log changes nothing and emits
	// nothing.
	before, err := det.Check(chaosProbe())
	if err != nil {
		t.Fatal(err)
	}
	det.AttachEvents(log)
	after, err := det.Check(chaosProbe())
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Fatalf("verdict changed after AttachEvents: %+v vs %+v", before, after)
	}
	if evs := log.Snapshot(obs.Filter{Type: obs.TypeQuarantine}); len(evs) != 0 {
		t.Fatalf("healthy check emitted %d quarantine events", len(evs))
	}

	// Poison the final layer so scoring hits non-finite numerics (the
	// TestQuarantineOnNonFiniteNumerics recipe).
	params := det.net.Params()
	last := params[len(params)-1]
	for i := range last.Value.Data {
		last.Value.Data[i] = math.NaN()
	}
	v, err := det.Check(chaosProbe())
	if err != nil {
		t.Fatal(err)
	}
	if !v.Quarantined {
		t.Fatalf("poisoned detector did not quarantine: %+v", v)
	}
	evs := log.Snapshot(obs.Filter{Type: obs.TypeQuarantine})
	if len(evs) != 1 {
		t.Fatalf("quarantined check emitted %d events, want 1", len(evs))
	}
	e := evs[0]
	if e.Level != obs.LevelWarn || e.Outcome != "quarantined" {
		t.Fatalf("quarantine event = %+v, want warn/quarantined", e)
	}
	if e.Class != v.Label || e.Joint != v.Discrepancy {
		t.Fatalf("event verdict payload %d/%v != verdict %d/%v", e.Class, e.Joint, v.Label, v.Discrepancy)
	}
	if len(e.Layers) == 0 {
		t.Fatalf("quarantine event carries no layer indices: %+v", e)
	}
	// Per-layer scores must be JSON-safe: finite ones ride PerLayer,
	// non-finite ones ship as strings under extra.per_layer_raw.
	for _, x := range e.PerLayer {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("PerLayer carries non-finite %v (must go to per_layer_raw)", x)
		}
	}
	if len(e.PerLayer) == 0 && e.Extra["per_layer_raw"] == nil {
		t.Fatalf("event has neither PerLayer nor per_layer_raw: %+v", e)
	}

	// Batch path funnels through the same hook.
	if _, err := det.CheckBatch([]Image{chaosProbe(), chaosProbe()}); err != nil {
		t.Fatal(err)
	}
	if evs := log.Snapshot(obs.Filter{Type: obs.TypeQuarantine}); len(evs) != 3 {
		t.Fatalf("after batch of 2: %d events, want 3", len(evs))
	}

	// Detach: further quarantines stay silent.
	det.AttachEvents(nil)
	if _, err := det.Check(chaosProbe()); err != nil {
		t.Fatal(err)
	}
	if evs := log.Snapshot(obs.Filter{Type: obs.TypeQuarantine}); len(evs) != 3 {
		t.Fatalf("detached detector still emitted (total %d)", len(evs))
	}
}
