package deepvalidation

// Escape-corpus replay regression test: every artifact under
// testdata/escapes/ is a detector escape mined by the coverage-guided
// hunter (internal/hunt, cmd/dvhunt) — an input the CNN mispredicts
// with high confidence while the detector accepts the prediction. Each
// is replayed through the public CheckBatch path against the recorded
// golden verdicts, so
//
//   - transformation-pipeline drift (the chain no longer reproduces the
//     mined pixels) breaks loudly,
//   - detector-behavior drift (a changed verdict) breaks loudly, and
//   - a detector improvement that *catches* a mined escape is recorded
//     deliberately: flip that entry's "caught" to true when
//     regenerating, turning the fixed escape into a guard against
//     regressing the fix.
//
// Regenerate after an intentional change with
//
//	DV_ESCAPES_REGEN=1 go test -run TestEscapeCorpusReplay -count=1 .
//
// Like the golden artifacts, the recorded floats are exact IEEE-754
// bits from linux/amd64; other platforms may need their own recording.

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"deepvalidation/internal/corner"
	"deepvalidation/internal/hunt"
	"deepvalidation/internal/tensor"
)

var (
	escapesDir        = filepath.Join("testdata", "escapes")
	escapesGoldenPath = filepath.Join("testdata", "escapes", "replay_golden.json")
)

// replayGoldenEntry records one escape's expected replay outcome.
type replayGoldenEntry struct {
	ID              string  `json:"id"`
	SeedLabel       int     `json:"seed_label"`
	Label           int     `json:"label"`
	Confidence      float64 `json:"confidence"`
	ConfidenceBits  string  `json:"confidence_bits"`
	Discrepancy     float64 `json:"discrepancy"`
	DiscrepancyBits string  `json:"discrepancy_bits"`
	Valid           bool    `json:"valid"`
	// Caught is false for a live escape (mispredicted AND accepted).
	// When a detector improvement fixes one, regeneration flips this to
	// true — the corpus entry then pins the fix instead of the escape.
	Caught bool `json:"caught"`
}

type replayGolden struct {
	Epsilon     float64             `json:"epsilon"`
	EpsilonBits string              `json:"epsilon_bits"`
	Escapes     []replayGoldenEntry `json:"escapes"`
}

// escapesBuild deterministically trains the detector the committed
// corpus was mined against. Unlike the committed golden artifacts
// (which predate the drift reference), this one is built fresh so it
// carries the fit-time drift reference the hunter's coverage map needs.
func escapesBuild() (*Detector, error) {
	imgs, labels := benchBandImages(rand.New(rand.NewSource(1)), 150)
	det, err := Build(imgs, labels, BuildConfig{
		Classes: 3, Epochs: 20, Width: 4, FCWidth: 16,
		SVMPerClass: 60, SVMFeatures: 64, Seed: 5, Workers: 1,
	})
	if err != nil {
		return nil, err
	}
	clean, _ := benchBandImages(rand.New(rand.NewSource(2)), 60)
	if _, err := det.Calibrate(clean, 0.1); err != nil {
		return nil, err
	}
	return det, nil
}

func TestEscapeCorpusReplay(t *testing.T) {
	det, err := escapesBuild()
	if err != nil {
		t.Fatal(err)
	}
	tgt := hunt.Target{Net: det.net, Val: det.val}

	if os.Getenv("DV_ESCAPES_REGEN") != "" {
		pool, poolY := benchBandImages(rand.New(rand.NewSource(3)), 60)
		xs := make([]*tensor.Tensor, len(pool))
		for i, im := range pool {
			x, err := tensorOf(im)
			if err != nil {
				t.Fatal(err)
			}
			xs[i] = x
		}
		seedX, seedY, err := corner.SelectSeeds(det.net, xs, poolY, 12, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		corpus, report, err := hunt.Hunt(tgt, seedX, seedY, hunt.Config{
			Budget: 2400, BatchSize: 64, Seed: 7, Workers: 1,
			Epsilon: det.Epsilon(), MaxSaved: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		if corpus.Len() == 0 {
			t.Fatalf("regeneration hunt found nothing to commit (report: %+v)", report)
		}
		spaces := corner.Spaces(true, 8, 8)
		if err := os.RemoveAll(escapesDir); err != nil {
			t.Fatal(err)
		}
		if err := corpus.Save(escapesDir, spaces, det.net.ModelName, det.Epsilon()); err != nil {
			t.Fatal(err)
		}
		if err := report.Save(filepath.Join(escapesDir, hunt.RatesName)); err != nil {
			t.Fatal(err)
		}
		golden := replayGolden{Epsilon: det.Epsilon(), EpsilonBits: bitsOf(det.Epsilon())}
		loaded, _, err := hunt.LoadCorpus(escapesDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range loaded.Escapes {
			img, match, err := e.CornerImage()
			if err != nil {
				t.Fatal(err)
			}
			if !match {
				t.Fatal("freshly mined escape fails its own pixel pin")
			}
			vs, err := det.CheckBatch([]Image{ImageOf(img)})
			if err != nil {
				t.Fatal(err)
			}
			id, err := e.ID()
			if err != nil {
				t.Fatal(err)
			}
			v := vs[0]
			caught := !v.Valid || v.Label == e.SeedLabel
			golden.Escapes = append(golden.Escapes, replayGoldenEntry{
				ID: id, SeedLabel: e.SeedLabel, Label: v.Label,
				Confidence: v.Confidence, ConfidenceBits: bitsOf(v.Confidence),
				Discrepancy: v.Discrepancy, DiscrepancyBits: bitsOf(v.Discrepancy),
				Valid: v.Valid, Caught: caught,
			})
		}
		data, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(escapesGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated escape corpus: %d escapes (of %d finds in %d evals) at eps=%v",
			loaded.Len(), report.Escapes+report.NearEscapes, report.Evals, det.Epsilon())
	}

	data, err := os.ReadFile(escapesGoldenPath)
	if err != nil {
		t.Fatalf("reading replay golden (run DV_ESCAPES_REGEN=1 to create it): %v", err)
	}
	var golden replayGolden
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(golden.EpsilonBits, golden.Epsilon) {
		t.Fatal("replay golden epsilon bits disagree with its own JSON float")
	}
	det.SetEpsilon(golden.Epsilon)

	corpus, manifest, err := hunt.LoadCorpus(escapesDir)
	if err != nil {
		t.Fatal(err)
	}
	if corpus.Len() == 0 {
		t.Fatal("committed escape corpus is empty")
	}
	if len(golden.Escapes) != corpus.Len() {
		t.Fatalf("replay golden records %d escapes, corpus holds %d", len(golden.Escapes), corpus.Len())
	}

	imgs := make([]Image, corpus.Len())
	for i, e := range corpus.Escapes {
		img, match, err := e.CornerImage()
		if err != nil {
			t.Fatal(err)
		}
		if !match {
			t.Fatalf("%s: transformation pipeline no longer reproduces the mined pixels — "+
				"intentional imgtrans change? regenerate with DV_ESCAPES_REGEN=1", manifest.Escapes[i].ID)
		}
		imgs[i] = ImageOf(img)
	}
	verdicts, err := det.CheckBatch(imgs)
	if err != nil {
		t.Fatal(err)
	}
	liveEscapes := 0
	for i, v := range verdicts {
		e, want := corpus.Escapes[i], golden.Escapes[i]
		id, err := e.ID()
		if err != nil {
			t.Fatal(err)
		}
		if id != want.ID {
			t.Fatalf("escape %d: corpus ID %s does not match golden entry %s", i, id, want.ID)
		}
		if v.Label != want.Label || v.Valid != want.Valid ||
			!bitsEqual(want.ConfidenceBits, v.Confidence) ||
			!bitsEqual(want.DiscrepancyBits, v.Discrepancy) {
			t.Fatalf("%s: verdict drifted:\n got  label=%d conf=%s disc=%s valid=%v\n want label=%d conf=%s disc=%s valid=%v\n"+
				"(intentional detector change? regenerate with DV_ESCAPES_REGEN=1 — a fixed escape should flip to caught)",
				id, v.Label, bitsOf(v.Confidence), bitsOf(v.Discrepancy), v.Valid,
				want.Label, want.ConfidenceBits, want.DiscrepancyBits, want.Valid)
		}
		caught := !v.Valid || v.Label == e.SeedLabel
		if caught != want.Caught {
			t.Fatalf("%s: caught=%v but golden records %v", id, caught, want.Caught)
		}
		if !want.Caught {
			// A live escape must still be the real thing: a confident
			// misprediction the detector accepts.
			if !v.Valid || v.Label == want.SeedLabel {
				t.Fatalf("%s: recorded as a live escape but valid=%v label=%d (seed label %d)",
					id, v.Valid, v.Label, want.SeedLabel)
			}
			liveEscapes++
		}
	}
	if liveEscapes == 0 {
		t.Fatal("corpus holds no live escapes — after the detector catches them all, mine a fresh corpus")
	}

	// The internal replay path must agree with the public CheckBatch
	// path on every outcome.
	outcomes, err := hunt.Replay(tgt, corpus, golden.Epsilon, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, oc := range outcomes {
		v := verdicts[i]
		if oc.Pred != v.Label || oc.Valid != v.Valid ||
			math.Float64bits(oc.Joint) != math.Float64bits(v.Discrepancy) {
			t.Fatalf("%s: hunt.Replay outcome %+v disagrees with CheckBatch verdict %+v", oc.ID, oc, v)
		}
	}
}
