// Command dvcheck classifies one or more PGM/PPM image files with a
// saved model and validates each prediction with a saved Deep
// Validation detector — the fail-safe inference path a deployed system
// would run:
//
//	dvcheck -model digits.model -validator digits.validator -eps 1.2 img1.pgm img2.pgm
//
// The exit code is 0 when every prediction is valid and 3 when at least
// one input was flagged as a corner case, so shell pipelines can gate
// on it.
package main

import (
	"flag"
	"fmt"
	"os"

	"deepvalidation"
	"deepvalidation/internal/dataset"
	"deepvalidation/internal/obs"
)

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dvcheck:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

func run() (int, error) {
	var (
		modelPath = flag.String("model", "model.gob", "trained model path")
		valPath   = flag.String("validator", "validator.gob", "fitted validator path")
		eps       = flag.Float64("eps", 0, "detection threshold ε (see dvvalidate score or examples/threshold_tuning)")
		verbose   = flag.Bool("v", false, "print per-layer discrepancies")
	)
	logOpts := obs.AddLogFlags(flag.CommandLine)
	flag.Parse()
	if flag.NArg() == 0 {
		return 0, fmt.Errorf("no image files given (want PGM/PPM paths as arguments)")
	}
	events, err := logOpts.Build(nil)
	if err != nil {
		return 0, err
	}
	defer func() { _ = events.Close() }()

	det, err := deepvalidation.Load(*modelPath, *valPath)
	if err != nil {
		return 0, err
	}
	det.SetEpsilon(*eps)

	flagged := 0
	for _, path := range flag.Args() {
		x, err := dataset.LoadPNM(path)
		if err != nil {
			return 0, err
		}
		// One scoring pass serves both the verdict and the per-layer
		// breakdown (the -v path used to score the image twice).
		var detail deepvalidation.Detail
		v, err := det.CheckDetailed(deepvalidation.ImageOf(x), &detail)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", path, err)
		}
		status := "VALID"
		if !v.Valid {
			status = "CORNER CASE"
			flagged++
		}
		if v.Quarantined {
			status = "QUARANTINED"
		}
		fmt.Printf("%s: class %d (confidence %.3f), discrepancy %+.4f [%s]\n",
			path, v.Label, v.Confidence, v.Discrepancy, status)
		lvl, outcome := obs.LevelInfo, "ok"
		if !v.Valid {
			lvl = obs.LevelWarn
		}
		if v.Quarantined {
			outcome = "quarantined"
		}
		events.Emit(obs.Event{
			Type: obs.TypeRequest, Level: lvl, Endpoint: "dvcheck",
			Outcome: outcome,
			Class:   v.Label, Valid: v.Valid, Joint: v.Discrepancy,
			Extra: map[string]any{"path": path},
		})
		if *verbose {
			for p, d := range detail.PerLayer {
				fmt.Printf("  layer %d: d = %+.4f\n", detail.Layers[p]+1, d)
			}
		}
	}
	if flagged > 0 {
		return 3, nil
	}
	return 0, nil
}
