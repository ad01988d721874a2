// Command dvvalidate fits a Deep Validation detector for a trained
// model and scores inputs with it:
//
//	dvvalidate fit   -model digits.model -dataset digits -out digits.validator
//	dvvalidate score -model digits.model -validator digits.validator -dataset digits -fpr 0.05
//
// "fit" runs the paper's Algorithm 1 (per-layer, per-class one-class
// SVMs on correctly classified training data). "score" calibrates the
// detection threshold ε on clean test data at the requested false
// positive rate and reports detection statistics on transformed
// samples.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"deepvalidation"
	"deepvalidation/internal/core"
	"deepvalidation/internal/dataset"
	"deepvalidation/internal/imgtrans"
	"deepvalidation/internal/metrics"
	"deepvalidation/internal/nn"
	"deepvalidation/internal/obs"
	"deepvalidation/internal/tensor"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: dvvalidate <fit|score> [flags]")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "fit":
		err = runFit(os.Args[2:])
	case "score":
		err = runScore(os.Args[2:])
	default:
		err = fmt.Errorf("unknown subcommand %q (want fit or score)", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dvvalidate:", err)
		os.Exit(1)
	}
}

func runFit(args []string) error {
	fs := flag.NewFlagSet("fit", flag.ExitOnError)
	var (
		modelPath = fs.String("model", "model.gob", "trained model path")
		dsName    = fs.String("dataset", "digits", "dataset the model was trained on")
		trainN    = fs.Int("train", 2500, "training set size (must match training)")
		testN     = fs.Int("test", 800, "test set size (must match training)")
		dsSeed    = fs.Int64("data-seed", 1, "dataset seed (must match training)")
		nu        = fs.Float64("nu", 0.1, "one-class SVM ν")
		perClass  = fs.Int("max-per-class", 200, "SVM training samples per (layer, class)")
		features  = fs.Int("max-features", 256, "SVM feature dimensionality cap")
		layers    = fs.String("layers", "", `layers to validate: "" for all hidden, "rear:K", or comma-separated tap indices`)
		workers   = fs.Int("workers", 0, "fitting worker bound (0 = GOMAXPROCS, 1 = sequential; the fitted validator is identical)")
		drift     = fs.Bool("drift", true, "persist the per-layer discrepancy quantile reference dvserve's drift watch compares against")
		out       = fs.String("out", "validator.gob", "output validator path")
	)
	of := obs.AddOfflineFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	op, err := of.Open(map[string]string{"component": "dvvalidate"}, core.TelemetrySummary)
	if err != nil {
		return err
	}
	defer op.Close()
	reg, events := op.Registry, op.Events

	net, err := nn.Load(*modelPath)
	if err != nil {
		return err
	}
	ds, err := dataset.ByName(*dsName, dataset.Config{TrainN: *trainN, TestN: *testN, Seed: *dsSeed})
	if err != nil {
		return err
	}
	cfg := core.Config{Nu: *nu, MaxPerClass: *perClass, MaxFeatures: *features, Workers: *workers, Telemetry: reg, SkipDriftSnapshot: !*drift}
	cfg.Layers, err = parseLayers(*layers, net)
	if err != nil {
		return err
	}

	fmt.Printf("fitting validator: %d classes, layers %v\n", net.Classes, layersOrAll(cfg.Layers))
	events.Emit(obs.Event{
		Type: obs.TypeLifecycle, Level: obs.LevelInfo, Msg: "validator fit starting",
		Extra: map[string]any{"dataset": *dsName, "classes": net.Classes, "nu": *nu, "out": *out},
	})
	val, err := core.Fit(net, ds.TrainX, ds.TrainY, cfg)
	if err != nil {
		return err
	}
	total := 0
	for _, row := range val.SVMs {
		total += len(row)
	}
	fmt.Printf("fitted %d one-class SVMs over %d layers\n", total, len(val.LayerIdx))
	if val.HasDriftReference() {
		fmt.Println("drift reference: persisted (dvserve will watch live discrepancies against it)")
	} else {
		fmt.Println("drift reference: none (drift watch will be disabled)")
	}
	if err := val.Save(*out); err != nil {
		return err
	}
	fmt.Println("validator saved to", *out)
	events.Emit(obs.Event{
		Type: obs.TypeLifecycle, Level: obs.LevelInfo, Msg: "validator fit finished",
		Extra: map[string]any{"svms": total, "layers": len(val.LayerIdx), "out": *out},
	})
	return nil
}

func runScore(args []string) error {
	fs := flag.NewFlagSet("score", flag.ExitOnError)
	var (
		modelPath = fs.String("model", "model.gob", "trained model path")
		valPath   = fs.String("validator", "validator.gob", "fitted validator path")
		dsName    = fs.String("dataset", "digits", "dataset name")
		trainN    = fs.Int("train", 2500, "training set size (must match training)")
		testN     = fs.Int("test", 800, "test set size (must match training)")
		dsSeed    = fs.Int64("data-seed", 1, "dataset seed (must match training)")
		fpr       = fs.Float64("fpr", 0.05, "false positive rate budget for ε calibration")
		rotate    = fs.Float64("rotate", 40, "rotation angle for the demonstration corner cases")
		workers   = fs.Int("workers", 0, "scoring worker bound (0 = GOMAXPROCS, 1 = sequential; verdicts are identical)")
	)
	of := obs.AddOfflineFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	op, err := of.Open(map[string]string{"component": "dvvalidate"}, core.TelemetrySummary)
	if err != nil {
		return err
	}
	defer op.Close()
	reg, events := op.Registry, op.Events

	det, err := deepvalidation.Load(*modelPath, *valPath)
	if err != nil {
		return err
	}
	ds, err := dataset.ByName(*dsName, dataset.Config{TrainN: *trainN, TestN: *testN, Seed: *dsSeed})
	if err != nil {
		return err
	}

	det.SetWorkers(*workers)
	det.AttachTelemetry(reg)
	clean := deepvalidation.ImagesOf(ds.TestX)
	eps, err := det.Calibrate(clean, *fpr)
	if err != nil {
		return err
	}
	fmt.Printf("calibrated ε = %.4f at FPR ≤ %.3f on %d clean test images\n", eps, *fpr, len(ds.TestX))
	events.Emit(obs.Event{
		Type: obs.TypeLifecycle, Level: obs.LevelInfo, Msg: "epsilon calibrated",
		Extra: map[string]any{"epsilon": eps, "fpr": *fpr, "test_n": len(ds.TestX)},
	})

	// Clean pass, batched across the worker pool.
	cleanVerdicts, err := det.CheckBatch(clean)
	if err != nil {
		return err
	}
	cleanValid := 0
	for _, v := range cleanVerdicts {
		if v.Valid {
			cleanValid++
		}
	}
	fmt.Printf("clean inputs accepted: %d/%d (%.1f%%)\n",
		cleanValid, len(ds.TestX), 100*float64(cleanValid)/float64(len(ds.TestX)))

	// Transformed pass: rotation as the demonstration corner case.
	tr := imgtrans.Rotation(*rotate)
	transformed := make([]*tensor.Tensor, len(ds.TestX))
	for i, x := range ds.TestX {
		transformed[i] = tr.Apply(x)
	}
	verdicts, err := det.CheckBatch(deepvalidation.ImagesOf(transformed))
	if err != nil {
		return err
	}
	flagged, wrong, wrongCaught := 0, 0, 0
	var discrepancies []float64
	for i, v := range verdicts {
		discrepancies = append(discrepancies, v.Discrepancy)
		if !v.Valid {
			flagged++
		}
		if v.Label != ds.TestY[i] {
			wrong++
			if !v.Valid {
				wrongCaught++
			}
		}
	}
	fmt.Printf("after %s: model wrong on %d/%d; detector flagged %d/%d, catching %d/%d errors\n",
		tr.Describe(), wrong, len(ds.TestX), flagged, len(ds.TestX), wrongCaught, wrong)
	fmt.Printf("mean discrepancy on transformed inputs: %.4f (ε = %.4f)\n", metrics.Mean(discrepancies), eps)
	events.Emit(obs.Event{
		Type: obs.TypeLifecycle, Level: obs.LevelInfo, Msg: "score run finished",
		Extra: map[string]any{
			"transform": tr.Describe(), "flagged": flagged,
			"wrong": wrong, "wrong_caught": wrongCaught,
		},
	})
	return nil
}

func parseLayers(spec string, net *nn.Network) ([]int, error) {
	if spec == "" {
		return nil, nil
	}
	if k, ok := strings.CutPrefix(spec, "rear:"); ok {
		n, err := strconv.Atoi(k)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad rear layer count %q", k)
		}
		return core.RearLayers(net, n), nil
	}
	var out []int
	for _, part := range strings.Split(spec, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad layer index %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func layersOrAll(layers []int) any {
	if layers == nil {
		return "all hidden"
	}
	return layers
}
