// Command dvhunt mines detector escapes: a coverage-guided search over
// metamorphic transformation compositions for inputs the model
// mispredicts with high confidence while the Deep Validation detector
// still accepts the prediction (see internal/hunt). Finds are
// minimized and persisted as a checksummed regression corpus:
//
//	dvhunt -model model.gob -validator validator.gob -dataset digits \
//	    -seeds 40 -budget 2000 -fpr 0.05 -out testdata/escapes
//
// Replay a persisted corpus against a (possibly newer) detector:
//
//	dvhunt -replay testdata/escapes -model model.gob -validator validator.gob
//
// Fixed -seed and -budget produce byte-identical corpora at any
// -workers setting.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"deepvalidation/internal/core"
	"deepvalidation/internal/corner"
	"deepvalidation/internal/dataset"
	"deepvalidation/internal/hunt"
	"deepvalidation/internal/metrics"
	"deepvalidation/internal/obs"
	"deepvalidation/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dvhunt:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		modelPath = flag.String("model", "model.gob", "trained model path")
		valPath   = flag.String("validator", "validator.gob", "fitted validator path (must carry the drift reference)")
		dsName    = flag.String("dataset", "digits", "dataset name")
		trainN    = flag.Int("train", 2500, "training set size (must match training)")
		testN     = flag.Int("test", 800, "test set size (must match training)")
		dsSeed    = flag.Int64("data-seed", 1, "dataset seed (must match training)")
		seeds     = flag.Int("seeds", 40, "number of correctly classified seed images")
		seed      = flag.Int64("seed", 7, "search seed: drives seed selection and all mutation randomness")
		eps       = flag.Float64("eps", 0, "detection threshold ε (0: calibrate from the test set at -fpr)")
		fpr       = flag.Float64("fpr", 0.05, "false-positive budget for ε calibration when -eps is 0")
		budget    = flag.Int("budget", 2000, "candidate evaluations for the search loop")
		batch     = flag.Int("batch", 64, "candidates scored per batch")
		workers   = flag.Int("workers", 0, "scoring worker bound (0 = GOMAXPROCS, 1 = sequential); any value yields identical corpora")
		minConf   = flag.Float64("min-conf", 0.5, "misprediction confidence floor for a find")
		near      = flag.Float64("near", 1.1, "near-escape margin: admit mispredictions with joint < near·ε (1 disables)")
		maxStages = flag.Int("max-stages", 3, "composition depth cap")
		maxSaved  = flag.Int("max-saved", 64, "distinct escapes persisted per hunt")
		outDir    = flag.String("out", "testdata/escapes", "corpus output directory")
		replayDir = flag.String("replay", "", "replay a corpus directory instead of hunting")
		strict    = flag.Bool("strict", false, "replay: exit non-zero when any verdict diverges from the manifest")
		markdown  = flag.Bool("markdown", false, "render the escape-rate table as markdown")
		verbose   = flag.Bool("v", false, "log per-escape finds and per-batch progress")
		telem     = flag.Bool("telemetry", false, "print the dv_hunt_* metric snapshot after the run")
	)
	logOpts := obs.AddLogFlags(flag.CommandLine)
	flag.Parse()

	var reg *telemetry.Registry
	if *telem {
		reg = telemetry.New()
	}
	events, err := logOpts.Build(reg)
	if err != nil {
		return err
	}
	defer func() { _ = events.Close() }()

	pair, err := core.LoadPair(*modelPath, *valPath)
	if err != nil {
		return err
	}
	tgt := hunt.Target{Net: pair.Net, Val: pair.Val}

	if *replayDir != "" {
		return replay(tgt, *replayDir, *eps, *fpr, *dsName, *trainN, *testN, *dsSeed, *workers, *strict)
	}

	ds, err := dataset.ByName(*dsName, dataset.Config{TrainN: *trainN, TestN: *testN, Seed: *dsSeed})
	if err != nil {
		return err
	}
	epsilon := resolveEpsilon(tgt, ds, *eps, *fpr, *workers)

	rng := rand.New(rand.NewSource(*seed))
	seedX, seedY, err := corner.SelectSeeds(tgt.Net, ds.TestX, ds.TestY, *seeds, rng)
	if err != nil {
		return err
	}
	fmt.Printf("hunting over %d seeds, eps=%.6g, budget=%d, seed=%d\n", len(seedX), epsilon, *budget, *seed)

	cfg := hunt.Config{
		Budget:        *budget,
		BatchSize:     *batch,
		Seed:          *seed,
		Workers:       *workers,
		Epsilon:       epsilon,
		MinConfidence: *minConf,
		NearFactor:    *near,
		MaxStages:     *maxStages,
		MaxSaved:      *maxSaved,
		Registry:      reg,
		Events:        events,
	}
	if *verbose {
		cfg.Log = os.Stderr
	}
	events.Emit(obs.Event{
		Type: obs.TypeLifecycle, Level: obs.LevelInfo, Msg: "hunt starting",
		Extra: map[string]any{"seeds": len(seedX), "epsilon": epsilon, "budget": *budget, "seed": *seed},
	})
	corpus, report, err := hunt.Hunt(tgt, seedX, seedY, cfg)
	if err != nil {
		return err
	}

	shape := seedX[0].Shape
	spaces := corner.Spaces(shape[0] == 1, shape[1], shape[2])
	if err := corpus.Save(*outDir, spaces, tgt.Net.ModelName, epsilon); err != nil {
		return err
	}
	if err := report.Save(filepath.Join(*outDir, hunt.RatesName)); err != nil {
		return err
	}
	if err := report.WriteTable(os.Stdout, *markdown); err != nil {
		return err
	}
	fmt.Printf("wrote %d escapes to %s\n", corpus.Len(), *outDir)
	events.Emit(obs.Event{
		Type: obs.TypeLifecycle, Level: obs.LevelInfo, Msg: "hunt finished",
		Extra: map[string]any{"escapes": corpus.Len(), "out": *outDir},
	})
	if reg != nil {
		// Raw exposition text rather than core.TelemetrySummary: the
		// interesting instruments here are the dv_hunt_* family, which the
		// serving-oriented summary does not cover.
		if err := reg.Snapshot().WritePrometheus(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

// resolveEpsilon uses the explicit -eps when given, else calibrates on
// the dataset's test split at the -fpr budget.
func resolveEpsilon(tgt hunt.Target, ds *dataset.Dataset, eps, fpr float64, workers int) float64 {
	if eps > 0 {
		return eps
	}
	scores := core.JointScores(tgt.Val.ScoreBatchWorkers(tgt.Net, ds.TestX, workers))
	return metrics.ThresholdForFPR(scores, fpr)
}

// replay re-runs a persisted corpus and compares current verdicts to
// the manifest's recorded ones.
func replay(tgt hunt.Target, dir string, eps, fpr float64, dsName string, trainN, testN int, dsSeed int64, workers int, strict bool) error {
	corpus, manifest, err := hunt.LoadCorpus(dir)
	if err != nil {
		return err
	}
	epsilon := eps
	if epsilon <= 0 {
		epsilon = manifest.Epsilon
	}
	if epsilon <= 0 {
		ds, err := dataset.ByName(dsName, dataset.Config{TrainN: trainN, TestN: testN, Seed: dsSeed})
		if err != nil {
			return err
		}
		epsilon = resolveEpsilon(tgt, ds, 0, fpr, workers)
	}
	outcomes, err := hunt.Replay(tgt, corpus, epsilon, workers)
	if err != nil {
		return err
	}
	caught, escaped, pixelDrift, diverged := 0, 0, 0, 0
	for i, oc := range outcomes {
		ent := manifest.Escapes[i]
		if oc.Caught {
			caught++
		} else {
			escaped++
		}
		if !oc.PixelsMatch {
			pixelDrift++
		}
		if oc.Pred != ent.Pred || oc.Joint != ent.Joint {
			diverged++
			fmt.Printf("%s: verdict drift: pred %d→%d, joint %.6g→%.6g (pixels match: %v)\n",
				oc.ID, ent.Pred, oc.Pred, ent.Joint, oc.Joint, oc.PixelsMatch)
		}
	}
	fmt.Printf("replayed %d escapes at eps=%.6g: %d still escape, %d caught, %d verdicts diverged from manifest, %d with transformed-pixel drift\n",
		len(outcomes), epsilon, escaped, caught, diverged, pixelDrift)
	if strict && (diverged > 0 || pixelDrift > 0) {
		return fmt.Errorf("replay diverged from the manifest (%d verdicts, %d pixel pins)", diverged, pixelDrift)
	}
	return nil
}
