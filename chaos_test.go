package deepvalidation

// Chaos suite: the corruption matrix and numeric-quarantine tests of
// the fault-tolerant artifact layer. Every scenario here must end in a
// clean, descriptive error (or an explicit quarantined verdict) — a
// panic anywhere is a test failure, and the suite runs under -race
// because the root package is in the race target list.

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"deepvalidation/internal/artifact"
	"deepvalidation/internal/core"
	"deepvalidation/internal/faultinject"
	"deepvalidation/internal/obs"
)

// chaosBuild trains a small real detector (the golden recipe — known
// to train every class) so the chaos scenarios corrupt genuine
// artifacts. Each test builds its own: some scenarios mutate weights.
func chaosBuild(t *testing.T) *Detector {
	t.Helper()
	det, err := goldenBuild()
	if err != nil {
		t.Fatal(err)
	}
	det.SetEpsilon(1.0)
	return det
}

// chaosProbe is a fixed input for verdict comparisons.
func chaosProbe() Image {
	imgs, _ := benchBandImages(rand.New(rand.NewSource(99)), 1)
	return imgs[0]
}

// poisonLastLayer fills the final layer's parameters with NaN. (Not the
// first conv: a ReLU squashes NaN to zero — NaN > 0 is false — so early
// poison can die before the output. The last Dense feeds softmax
// directly, so its NaN reaches the logits and the confidence.)
func poisonLastLayer(t *testing.T, det *Detector) {
	t.Helper()
	params := det.net.Params()
	if len(params) == 0 {
		t.Fatal("network has no parameters")
	}
	last := params[len(params)-1]
	for i := range last.Value.Data {
		last.Value.Data[i] = math.NaN()
	}
}

// TestCorruptionMatrix saves a real model+validator pair and then
// corrupts each file two ways — truncation and a single bit flip — at
// every 1 KiB boundary (plus the edges). Load must reject every
// corrupted artifact with an error; no shape of corruption may panic
// or yield a working detector from damaged bytes. Where the damage is
// inside a container's payload, the error must be the container's
// *artifact.CorruptError: the checksum stops the bytes before gob reads
// them, so a flipped length byte can never make gob allocate for it.
func TestCorruptionMatrix(t *testing.T) {
	det := chaosBuild(t)
	dir := t.TempDir()
	goodModel := filepath.Join(dir, "model.gob")
	goodVal := filepath.Join(dir, "validator.gob")
	if err := det.Save(goodModel, goodVal); err != nil {
		t.Fatal(err)
	}
	// Sanity: the clean pair loads.
	if _, err := Load(goodModel, goodVal); err != nil {
		t.Fatalf("clean pair failed to load: %v", err)
	}

	for _, target := range []struct {
		name string
		path string
	}{
		{"model", goodModel},
		{"validator", goodVal},
	} {
		data, err := os.ReadFile(target.path)
		if err != nil {
			t.Fatal(err)
		}
		info, err := artifact.ReadHeader(target.path)
		if err != nil {
			t.Fatal(err)
		}
		size := int64(len(data))
		payloadStart := size - info.Header.PayloadSize
		// 1 KiB boundaries, plus the first and last byte.
		offsets := []int64{0, size - 1}
		for off := int64(1024); off < size; off += 1024 {
			offsets = append(offsets, off)
		}

		loadPair := func(damage string, off int64) {
			t.Helper()
			var err error
			if target.name == "model" {
				_, err = Load(filepath.Join(dir, "corrupt"), goodVal)
			} else {
				_, err = Load(goodModel, filepath.Join(dir, "corrupt"))
			}
			var corrupt *artifact.CorruptError
			switch {
			case err == nil:
				t.Errorf("%s %s at %d loaded without error", target.name, damage, off)
			case off >= payloadStart && !errors.As(err, &corrupt):
				t.Errorf("%s %s at %d (inside the payload) = %v, want an *artifact.CorruptError", target.name, damage, off, err)
			}
		}
		restore := func() {
			if err := os.WriteFile(filepath.Join(dir, "corrupt"), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		for _, off := range offsets {
			restore()
			if err := faultinject.Truncate(filepath.Join(dir, "corrupt"), off); err != nil {
				t.Fatal(err)
			}
			loadPair("truncated", off)

			restore()
			if err := faultinject.FlipBit(filepath.Join(dir, "corrupt"), off, uint(off)%8); err != nil {
				t.Fatal(err)
			}
			loadPair("with a bit flipped", off)
		}
	}
}

// TestLoadRejectsMismatchedPair: a model and a validator that were not
// fitted together must be rejected at load time by the compatibility
// cross-check, not panic at the first Check. The mismatch is staged by
// re-labeling the validator as belonging to a different model.
func TestLoadRejectsMismatchedPair(t *testing.T) {
	det := chaosBuild(t)
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.gob")
	valPath := filepath.Join(dir, "validator.gob")
	if err := det.Save(modelPath, valPath); err != nil {
		t.Fatal(err)
	}
	det.val.ModelName = "someone-elses-model"
	strangerVal := filepath.Join(dir, "stranger-validator.gob")
	if err := det.val.Save(strangerVal); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(modelPath, strangerVal); err == nil {
		t.Fatal("mismatched model/validator pair loaded without error")
	}
	// The honest pair still loads.
	if _, err := Load(modelPath, valPath); err != nil {
		t.Fatalf("matching pair failed to load: %v", err)
	}
}

// TestSaveIsAtomicUnderCrash: a fault injected at the publish point of
// the validator save (model already landed) leaves the previous pair
// loadable and byte-identical — the crash-safety contract the chaos
// smoke script exercises at the binary level via DV_FAULT.
func TestSaveIsAtomicUnderCrash(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	det := chaosBuild(t)
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.gob")
	valPath := filepath.Join(dir, "validator.gob")
	if err := det.Save(modelPath, valPath); err != nil {
		t.Fatal(err)
	}
	beforeModel, _ := os.ReadFile(modelPath)
	beforeVal, _ := os.ReadFile(valPath)

	faultinject.Arm(faultinject.PointArtifactRename, nil)
	if err := det.Save(modelPath, valPath); err == nil {
		t.Fatal("save succeeded with the rename fault armed")
	}
	faultinject.Reset()

	afterModel, _ := os.ReadFile(modelPath)
	afterVal, _ := os.ReadFile(valPath)
	if string(beforeModel) != string(afterModel) || string(beforeVal) != string(afterVal) {
		t.Fatal("failed save mutated a previously good artifact")
	}
	if _, err := Load(modelPath, valPath); err != nil {
		t.Fatalf("pair no longer loads after a failed save: %v", err)
	}
}

// quarantineRun is one detector's record of TestBatchQuarantineMatchesSequential:
// verdicts before and after the poison, the quarantine events it
// emitted, and its statistics.
type quarantineRun struct {
	healthy, poisoned []Verdict
	events            []obs.Event
	stats             StatsDetail
	quarantined       int64
}

// TestBatchQuarantineMatchesSequential runs the poisoned final layer of
// TestQuarantineOnNonFiniteNumerics through the batch body at 1, 2 and
// 4 workers. Verdicts, StatsDetail (its recent ring included) and
// dv_quarantined_total must equal a sequential CheckDetailed loop's;
// one quarantine event must be emitted per image, in input order; and
// every per-layer row the events carry must keep its bits through a
// later CheckBatch, so none aliases a worker's reused row.
func TestBatchQuarantineMatchesSequential(t *testing.T) {
	// More healthy images than the 50-verdict recent window, with a mix
	// of valid and flagged verdicts, so the ring's contents depend on
	// the order the batch records them in.
	healthy, _ := benchBandImages(rand.New(rand.NewSource(41)), 60)
	probes, _ := benchBandImages(rand.New(rand.NewSource(42)), 8)
	run := func(workers int, check func(det *Detector, imgs []Image) []Verdict) quarantineRun {
		det, err := Load(goldenModelContainer, goldenValContainer)
		if err != nil {
			t.Fatal(err)
		}
		det.SetEpsilon(1.0)
		det.SetWorkers(workers)
		reg := det.Telemetry()
		log := obs.New(obs.Config{})
		det.AttachEvents(log)
		var r quarantineRun
		r.healthy = check(det, healthy)
		poisonLastLayer(t, det)
		r.poisoned = check(det, probes)
		r.stats = det.StatsDetail()
		r.quarantined = reg.Snapshot().Counters[core.MetricQuarantined]
		// The snapshot is newest first; its events own copies of their
		// PerLayer rows.
		evs := log.Snapshot(obs.Filter{Type: obs.TypeQuarantine})
		for i := len(evs) - 1; i >= 0; i-- {
			r.events = append(r.events, evs[i])
		}
		// Overwrite every worker's row with other images' discrepancies.
		if _, err := det.CheckBatch(healthy); err != nil {
			t.Fatal(err)
		}
		return r
	}
	want := run(1, func(det *Detector, imgs []Image) []Verdict {
		out := make([]Verdict, len(imgs))
		for i, im := range imgs {
			v, err := det.CheckDetailed(im, nil)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = v
		}
		return out
	})
	if want.quarantined != int64(len(probes)) {
		t.Fatalf("sequential reference quarantined %d of %d poisoned checks", want.quarantined, len(probes))
	}
	for _, workers := range []int{1, 2, 4} {
		got := run(workers, func(det *Detector, imgs []Image) []Verdict {
			vs, err := det.CheckBatch(imgs)
			if err != nil {
				t.Fatal(err)
			}
			return vs
		})
		if !reflect.DeepEqual(got.healthy, want.healthy) || !reflect.DeepEqual(got.poisoned, want.poisoned) {
			t.Errorf("workers=%d: batch verdicts differ from the sequential loop:\n%+v %+v\nwant\n%+v %+v",
				workers, got.healthy, got.poisoned, want.healthy, want.poisoned)
		}
		if !reflect.DeepEqual(got.stats, want.stats) {
			t.Errorf("workers=%d: StatsDetail %+v, sequential %+v", workers, got.stats, want.stats)
		}
		if got.quarantined != want.quarantined {
			t.Errorf("workers=%d: dv_quarantined_total %d, sequential %d", workers, got.quarantined, want.quarantined)
		}
		if len(got.events) != len(probes) || len(want.events) != len(probes) {
			t.Fatalf("workers=%d: %d quarantine events (sequential %d) for %d poisoned images",
				workers, len(got.events), len(want.events), len(probes))
		}
		for i, e := range got.events {
			if v := got.poisoned[i]; e.Class != v.Label || e.Joint != v.Discrepancy {
				t.Errorf("workers=%d: event %d carries %d/%v, not the batch's verdict %d in input order (%d/%v)",
					workers, i, e.Class, e.Joint, i, v.Label, v.Discrepancy)
			}
			w := want.events[i]
			if len(e.PerLayer) != len(w.PerLayer) || !reflect.DeepEqual(e.Extra, w.Extra) {
				t.Fatalf("workers=%d: event %d per-layer payload %v %v, sequential %v %v", workers, i, e.PerLayer, e.Extra, w.PerLayer, w.Extra)
			}
			for p := range e.PerLayer {
				if math.Float64bits(e.PerLayer[p]) != math.Float64bits(w.PerLayer[p]) {
					t.Errorf("workers=%d: event %d layer %d is %v after a later batch, sequential %v (aliased row?)",
						workers, i, p, e.PerLayer[p], w.PerLayer[p])
				}
			}
		}
	}
}

// TestCorruptedFirstLayerNeverValid: a model whose whole first-layer
// weight tensor is NaN (a bad checkpoint) must never yield a valid
// verdict under the ε calibrated on the healthy model. A ReLU squashes
// NaN to zero, so this corruption need not quarantine; the activations
// then sit far outside every reference region instead.
func TestCorruptedFirstLayerNeverValid(t *testing.T) {
	det := goldenDetector(t, 0)
	clean, _ := benchBandImages(rand.New(rand.NewSource(2)), 60)
	eps, err := det.Calibrate(clean, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	det.net.Params()[0].Value.Fill(math.NaN())
	vs, err := det.CheckBatch(clean[:20])
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vs {
		if v.Valid {
			t.Errorf("image %d: corrupted model produced a valid verdict %+v (ε = %v)", i, v, eps)
		}
	}
}

// TestQuarantineOnNonFiniteNumerics poisons one network weight with
// NaN and checks the full quarantine contract: the verdict is
// explicitly quarantined and never valid, its discrepancy stays finite
// (the serving wire format is JSON, which cannot carry NaN), the
// telemetry counter moves, and CheckBatch agrees with Check.
func TestQuarantineOnNonFiniteNumerics(t *testing.T) {
	det := chaosBuild(t)
	reg := det.Telemetry()

	// Healthy baseline: nothing quarantined.
	v, err := det.Check(chaosProbe())
	if err != nil {
		t.Fatal(err)
	}
	if v.Quarantined {
		t.Fatalf("healthy detector quarantined a clean probe: %+v", v)
	}

	poisonLastLayer(t, det)

	v, err = det.Check(chaosProbe())
	if err != nil {
		t.Fatal(err)
	}
	if !v.Quarantined {
		t.Fatalf("poisoned detector did not quarantine: %+v", v)
	}
	if v.Valid {
		t.Fatal("quarantined verdict reported valid")
	}
	if math.IsNaN(v.Discrepancy) || math.IsInf(v.Discrepancy, 0) {
		t.Fatalf("quarantined verdict carries non-finite discrepancy %v", v.Discrepancy)
	}
	if math.IsNaN(v.Confidence) || math.IsInf(v.Confidence, 0) {
		t.Fatalf("quarantined verdict carries non-finite confidence %v", v.Confidence)
	}

	snap := reg.Snapshot()
	if got := snap.Counters[core.MetricQuarantined]; got != 1 {
		t.Fatalf("dv_quarantined_total = %d after one quarantined check", got)
	}

	vs, err := det.CheckBatch([]Image{chaosProbe(), chaosProbe()})
	if err != nil {
		t.Fatal(err)
	}
	for i, bv := range vs {
		if !bv.Quarantined || bv.Valid {
			t.Fatalf("batch verdict %d not quarantined: %+v", i, bv)
		}
	}
	snap = reg.Snapshot()
	if got := snap.Counters[core.MetricQuarantined]; got != 3 {
		t.Fatalf("dv_quarantined_total = %d after three quarantined checks", got)
	}

	// A poisoned network must also be unsaveable: structural validation
	// rejects non-finite parameters at encode-side load forever after.
	dir := t.TempDir()
	if err := det.Save(filepath.Join(dir, "m"), filepath.Join(dir, "v")); err == nil {
		// Save writes the payload without re-validating; loading it back
		// must fail instead.
		if _, err := Load(filepath.Join(dir, "m"), filepath.Join(dir, "v")); err == nil {
			t.Fatal("NaN-poisoned artifacts saved and loaded cleanly")
		}
	}
}
