// Command dvbench regenerates the paper's tables and figures:
//
//	dvbench -exp all -scale full -cache artifacts/
//	dvbench -exp table6 -dataset objects
//	dvbench -exp fig2 -out figures/
//
// The evaluation report is one markdown run over the paper's tables
// and figures; at quick scale on digits it writes the bytes of
// internal/experiment/testdata/digits_quick.md:
//
//	dvbench -exp table3,table5,fig3,table6,table7,table8,fig4 \
//	    -scale quick -dataset digits -format markdown > report.md
//
// -hunt appends a dvhunt escape corpus to the output: the
// per-composition escape-rate table from the corpus's rates.json plus
// the persisted escapes from its manifest:
//
//	dvbench -exp table7 -scale quick -hunt testdata/escapes -format markdown
//
// Expensive artifacts (trained models, fitted validators, corner-case
// corpora, attack suites) are cached under -cache, so repeated
// invocations re-render tables from the same inputs. Tables go to
// stdout and progress to stderr.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"deepvalidation/internal/core"
	"deepvalidation/internal/experiment"
	"deepvalidation/internal/hunt"
	"deepvalidation/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dvbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		exp      = flag.String("exp", "all", "comma-separated experiment ids: "+strings.Join(experiment.Experiments, ", ")+", or all")
		scale    = flag.String("scale", "full", "experiment scale: quick or full")
		cacheDir = flag.String("cache", "artifacts", "artifact cache directory (empty disables caching)")
		dsName   = flag.String("dataset", "", "comma-separated scenarios for the per-dataset experiments (default all)")
		outDir   = flag.String("out", "figures", "output directory for fig2 images")
		format   = flag.String("format", "text", "table format: text or markdown")
		huntDir  = flag.String("hunt", "", "dvhunt corpus directory: append its escape-rate table (e.g. testdata/escapes)")
		workers  = flag.Int("workers", 0, "scoring/fitting worker bound (0 = GOMAXPROCS, 1 = sequential; results are identical)")
		quiet    = flag.Bool("quiet", false, "suppress progress logging")
	)
	of := obs.AddOfflineFlags(flag.CommandLine)
	flag.Parse()

	// Every argument is checked before the first experiment trains, so
	// a typo late in -exp does not cost the runs ahead of it.
	var sc experiment.Scale
	switch *scale {
	case "quick":
		sc = experiment.QuickScale()
	case "full":
		sc = experiment.FullScale()
	default:
		return fmt.Errorf("unknown scale %q (want quick or full)", *scale)
	}
	if *format != "text" && *format != "markdown" {
		return fmt.Errorf("unknown format %q (want text or markdown)", *format)
	}
	markdown := *format == "markdown"
	todo, names := experiment.Experiments, experiment.ScenarioNames()
	var err error
	if *exp != "all" {
		if todo, err = splitKnown(*exp, todo, "experiment"); err != nil {
			return err
		}
	}
	if *dsName != "" {
		if names, err = splitKnown(*dsName, names, "dataset"); err != nil {
			return err
		}
	}

	op, err := of.Open(map[string]string{"component": "dvbench"}, core.TelemetrySummary)
	if err != nil {
		return err
	}
	defer op.Close()
	events := op.Events

	lab := experiment.NewLab(sc, *cacheDir)
	lab.Workers = *workers
	lab.Telemetry = op.Registry
	if !*quiet {
		lab.Log = os.Stderr
	}

	for _, id := range todo {
		events.Emit(obs.Event{
			Type: obs.TypeLifecycle, Level: obs.LevelInfo, Msg: "experiment starting",
			Extra: map[string]any{"experiment": id, "scale": *scale},
		})
		if err := lab.Render(os.Stdout, id, names, markdown, *outDir); err != nil {
			events.Emit(obs.Event{
				Type: obs.TypeLifecycle, Level: obs.LevelError, Msg: "experiment failed",
				Err: err.Error(), Extra: map[string]any{"experiment": id},
			})
			return fmt.Errorf("%s: %w", id, err)
		}
	}
	if *huntDir != "" {
		return writeHuntSection(os.Stdout, *huntDir, markdown)
	}
	return nil
}

// splitKnown splits a comma-separated list and rejects any entry not
// in known.
func splitKnown(list string, known []string, what string) ([]string, error) {
	var out []string
	for _, s := range strings.Split(list, ",") {
		s = strings.TrimSpace(s)
		if !slices.Contains(known, s) {
			return nil, fmt.Errorf("unknown %s %q (want one of %s)", what, s, strings.Join(known, ", "))
		}
		out = append(out, s)
	}
	return out, nil
}

// writeHuntSection appends the corner-case mining section: the hunt's
// per-composition escape-rate table (rates.json) and a summary of the
// escapes persisted in the corpus manifest.
func writeHuntSection(w io.Writer, dir string, markdown bool) error {
	report, err := hunt.LoadReport(filepath.Join(dir, hunt.RatesName))
	if err != nil {
		return err
	}
	heading := "== Detector-escape mining (dvhunt) ==\n\n"
	if markdown {
		heading = "## Detector-escape mining (dvhunt)\n\n"
	}
	if _, err := fmt.Fprintf(w, "\n%s", heading); err != nil {
		return err
	}
	if err := report.WriteTable(w, markdown); err != nil {
		return err
	}
	// The manifest is optional detail: a rates.json without a persisted
	// corpus (replay-only layouts) still renders the table above.
	corpus, manifest, err := hunt.LoadCorpus(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return err
	}
	live := 0
	for _, e := range corpus.Escapes {
		if !e.Near {
			live++
		}
	}
	_, err = fmt.Fprintf(w, "\ncorpus %s: %d persisted escapes (%d full, %d near) against model %q at eps=%.6g\n",
		dir, corpus.Len(), live, corpus.Len()-live, manifest.Model, manifest.Epsilon)
	return err
}
