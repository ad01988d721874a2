// Command dvbench regenerates the paper's tables and figures:
//
//	dvbench -exp all -scale full -cache artifacts/
//	dvbench -exp table6 -dataset objects
//	dvbench -exp fig2 -out figures/
//
// Expensive artifacts (trained models, fitted validators, corner-case
// corpora, attack suites) are cached under -cache, so repeated
// invocations re-render tables from the same inputs.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"deepvalidation/internal/core"
	"deepvalidation/internal/experiment"
	"deepvalidation/internal/obs"
	"deepvalidation/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dvbench:", err)
		os.Exit(1)
	}
}

var experiments = []string{
	"table3", "table5", "fig2", "fig3", "table6", "table7", "table8", "fig4",
	"ablation-weights", "ablation-rear", "ablation-nu", "ablation-norm", "ext-novel",
}

func run() error {
	var (
		exp      = flag.String("exp", "all", "experiment id: "+strings.Join(experiments, ", ")+", or all")
		scale    = flag.String("scale", "full", "experiment scale: quick or full")
		cacheDir = flag.String("cache", "artifacts", "artifact cache directory (empty disables caching)")
		dsName   = flag.String("dataset", "", "restrict per-dataset experiments to one scenario")
		outDir   = flag.String("out", "figures", "output directory for fig2 images")
		format   = flag.String("format", "text", "table format: text or markdown")
		workers  = flag.Int("workers", 0, "scoring/fitting worker bound (0 = GOMAXPROCS, 1 = sequential; results are identical)")
		quiet    = flag.Bool("quiet", false, "suppress progress logging")
		telFlag  = flag.Bool("telemetry", false, "print a telemetry summary after the experiments")

		addr   = flag.String("metrics-addr", "", `serve /metrics, /debug/vars, and /debug/pprof on this address (e.g. ":9090" or "127.0.0.1:0"; empty disables)`)
		linger = flag.Duration("metrics-linger", 0, "keep the metrics endpoint serving this long after the run finishes (for scrapers)")
	)
	logOpts := obs.AddLogFlags(flag.CommandLine)
	flag.Parse()

	var reg *telemetry.Registry
	if *telFlag || *addr != "" {
		reg = telemetry.New()
	}
	events, err := logOpts.Build(reg)
	if err != nil {
		return err
	}
	defer func() { _ = events.Close() }()
	if *addr != "" {
		bound, stop, err := telemetry.Serve(*addr, reg)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "metrics: serving /metrics, /debug/vars, and /debug/pprof/ on http://%s\n", bound)
		defer func() {
			if *linger > 0 {
				fmt.Fprintf(os.Stderr, "metrics: lingering %v before shutdown\n", *linger)
				time.Sleep(*linger)
			}
			_ = stop()
		}()
	}
	if *telFlag {
		defer func() { core.TelemetrySummary(os.Stdout, reg.Snapshot()) }()
	}

	var sc experiment.Scale
	switch *scale {
	case "quick":
		sc = experiment.QuickScale()
	case "full":
		sc = experiment.FullScale()
	default:
		return fmt.Errorf("unknown scale %q (want quick or full)", *scale)
	}
	lab := experiment.NewLab(sc, *cacheDir)
	lab.Workers = *workers
	lab.Telemetry = reg
	if !*quiet {
		lab.Log = os.Stderr
	}

	names := experiment.ScenarioNames()
	if *dsName != "" {
		names = []string{*dsName}
	}

	var render func(*experiment.Table)
	switch *format {
	case "text":
		render = func(t *experiment.Table) { t.Render(os.Stdout) }
	case "markdown":
		render = func(t *experiment.Table) { t.RenderMarkdown(os.Stdout) }
	default:
		return fmt.Errorf("unknown format %q (want text or markdown)", *format)
	}

	todo := experiments
	if *exp != "all" {
		todo = strings.Split(*exp, ",")
	}
	for _, id := range todo {
		id = strings.TrimSpace(id)
		events.Emit(obs.Event{
			Type: obs.TypeLifecycle, Level: obs.LevelInfo, Msg: "experiment starting",
			Extra: map[string]any{"experiment": id, "scale": *scale},
		})
		if err := runOne(lab, id, names, *outDir, render); err != nil {
			events.Emit(obs.Event{
				Type: obs.TypeLifecycle, Level: obs.LevelError, Msg: "experiment failed",
				Err: err.Error(), Extra: map[string]any{"experiment": id},
			})
			return fmt.Errorf("%s: %w", id, err)
		}
	}
	return nil
}

func runOne(lab *experiment.Lab, id string, names []string, outDir string, render func(*experiment.Table)) error {
	switch id {
	case "table3":
		t, err := lab.Table3(names...)
		if err != nil {
			return err
		}
		render(t)
	case "table5":
		for _, name := range names {
			t, err := lab.Table5(name)
			if err != nil {
				return err
			}
			render(t)
		}
	case "fig2":
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		for _, name := range names {
			files, err := lab.Figure2(name, outDir)
			if err != nil {
				return err
			}
			fmt.Printf("Figure 2 (%s): wrote %d images under %s\n", name, len(files), outDir)
		}
	case "fig3":
		for _, name := range names {
			d, err := lab.Figure3(name)
			if err != nil {
				return err
			}
			d.RenderHistograms(os.Stdout, 80, 12)
			render(d.Summary())
		}
	case "table6":
		for _, name := range names {
			t, err := lab.Table6(name)
			if err != nil {
				return err
			}
			render(t)
		}
	case "table7":
		t, err := lab.Table7(names...)
		if err != nil {
			return err
		}
		render(t)
	case "table8":
		t, err := lab.Table8()
		if err != nil {
			return err
		}
		render(t)
	case "fig4":
		const fpr = 0.059 // the paper's Figure 4 operating point
		pts, err := lab.Figure4("digits", fpr)
		if err != nil {
			return err
		}
		render(experiment.Fig4Table("digits", fpr, pts))
	case "ablation-weights":
		for _, name := range names {
			t, err := lab.AblationWeightedJoint(name)
			if err != nil {
				return err
			}
			render(t)
		}
	case "ablation-rear":
		t, err := lab.AblationRearLayers(pick(names, "objects"))
		if err != nil {
			return err
		}
		render(t)
	case "ablation-nu":
		t, err := lab.AblationNu(pick(names, "digits"), []float64{0.02, 0.05, 0.1, 0.2, 0.4})
		if err != nil {
			return err
		}
		render(t)
	case "ablation-norm":
		for _, name := range names {
			t, err := lab.AblationNormalizedJoint(name)
			if err != nil {
				return err
			}
			render(t)
		}
	case "ext-novel":
		for _, name := range names {
			t, err := lab.ExtensionNovelTransforms(name)
			if err != nil {
				return err
			}
			render(t)
		}
	default:
		return fmt.Errorf("unknown experiment %q", id)
	}
	return nil
}

// pick prefers want when present in names, else the first entry.
func pick(names []string, want string) string {
	for _, n := range names {
		if n == want {
			return n
		}
	}
	return names[0]
}
