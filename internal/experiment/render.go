package experiment

import (
	"fmt"
	"io"
	"os"
	"slices"
)

// Experiments lists every experiment id Render knows, in the order a
// full run renders them.
var Experiments = []string{
	"table3", "table5", "fig2", "fig3", "table6", "table7", "table8", "fig4",
	"ablation-weights", "ablation-rear", "ablation-nu", "ablation-norm", "ext-novel",
}

// Render runs experiment id over the named scenarios and writes its
// tables to w, as aligned text or as markdown. fig2 writes its images
// under figDir and reports them on w. Table VIII and Figure 4 always
// run on digits, as in the paper; the rear-layer and ν ablations run on
// one scenario, objects and digits when names holds them.
func (l *Lab) Render(w io.Writer, id string, names []string, markdown bool, figDir string) error {
	render := func(t *Table) {
		if markdown {
			t.RenderMarkdown(w)
		} else {
			t.Render(w)
		}
	}
	switch id {
	case "table3":
		t, err := l.Table3(names...)
		if err != nil {
			return err
		}
		render(t)
	case "table5":
		for _, name := range names {
			t, err := l.Table5(name)
			if err != nil {
				return err
			}
			render(t)
		}
	case "fig2":
		if err := os.MkdirAll(figDir, 0o755); err != nil {
			return err
		}
		for _, name := range names {
			files, err := l.Figure2(name, figDir)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "Figure 2 (%s): wrote %d images under %s\n", name, len(files), figDir)
		}
	case "fig3":
		for _, name := range names {
			d, err := l.Figure3(name)
			if err != nil {
				return err
			}
			// The histogram's '|' rows would read as a table in
			// markdown, so they go in a code block there.
			if markdown {
				fmt.Fprintln(w, "```")
			}
			d.RenderHistograms(w, 80, 12)
			if markdown {
				fmt.Fprint(w, "```\n\n")
			}
			render(d.Summary())
		}
	case "table6":
		for _, name := range names {
			t, err := l.Table6(name)
			if err != nil {
				return err
			}
			render(t)
		}
	case "table7":
		t, err := l.Table7(names...)
		if err != nil {
			return err
		}
		render(t)
	case "table8":
		t, err := l.Table8()
		if err != nil {
			return err
		}
		render(t)
	case "fig4":
		const fpr = 0.059 // the paper's Figure 4 operating point
		pts, err := l.Figure4("digits", fpr)
		if err != nil {
			return err
		}
		render(Fig4Table("digits", fpr, pts))
	case "ablation-weights":
		for _, name := range names {
			t, err := l.AblationWeightedJoint(name)
			if err != nil {
				return err
			}
			render(t)
		}
	case "ablation-rear":
		t, err := l.AblationRearLayers(pick(names, "objects"))
		if err != nil {
			return err
		}
		render(t)
	case "ablation-nu":
		t, err := l.AblationNu(pick(names, "digits"), []float64{0.02, 0.05, 0.1, 0.2, 0.4})
		if err != nil {
			return err
		}
		render(t)
	case "ablation-norm":
		for _, name := range names {
			t, err := l.AblationNormalizedJoint(name)
			if err != nil {
				return err
			}
			render(t)
		}
	case "ext-novel":
		for _, name := range names {
			t, err := l.ExtensionNovelTransforms(name)
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
	if slices.Contains(names, want) {
		return want
	}
	return names[0]
}
