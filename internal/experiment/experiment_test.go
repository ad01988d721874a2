package experiment

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// The quick-scale lab is expensive to build (it trains real models), so
// all tests share one instance. Tests must treat it as read-only.
var labFixture struct {
	once sync.Once
	dir  string
	lab  *Lab
	err  error
}

// TestMain removes the shared lab's artifact cache once every test has
// run.
func TestMain(m *testing.M) {
	code := m.Run()
	if labFixture.dir != "" {
		os.RemoveAll(labFixture.dir)
	}
	os.Exit(code)
}

func quickLab(t *testing.T) *Lab {
	t.Helper()
	labFixture.once.Do(func() {
		dir, err := os.MkdirTemp("", "dv-lab-*")
		if err != nil {
			labFixture.err = err
			return
		}
		labFixture.dir = dir
		labFixture.lab = NewLab(QuickScale(), dir)
	})
	if labFixture.err != nil {
		t.Fatal(labFixture.err)
	}
	return labFixture.lab
}

func TestScenarioDigitsTrainsWell(t *testing.T) {
	l := quickLab(t)
	s, err := l.Scenario("digits")
	if err != nil {
		t.Fatal(err)
	}
	if s.TestAcc < 0.9 {
		t.Fatalf("digits test accuracy %v too low for the detection experiments", s.TestAcc)
	}
	if s.Net.NumLayers() != 7 {
		t.Fatalf("digits model has %d taps, want 7 (Table II)", s.Net.NumLayers())
	}
	if got := len(s.Validator.LayerIdx); got != 6 {
		t.Fatalf("digits validator probes %d layers, want 6", got)
	}
	if !s.Grayscale {
		t.Fatal("digits should be greyscale")
	}
}

func TestScenarioCachedRoundTrip(t *testing.T) {
	l := quickLab(t)
	s1, err := l.Scenario("digits")
	if err != nil {
		t.Fatal(err)
	}
	// A fresh lab over the same cache dir must load, not retrain.
	l2 := NewLab(QuickScale(), l.CacheDir)
	s2, err := l2.Scenario("digits")
	if err != nil {
		t.Fatal(err)
	}
	if s2.TestAcc != s1.TestAcc {
		t.Fatalf("cached accuracy %v != fresh %v", s2.TestAcc, s1.TestAcc)
	}
	x := s1.Dataset.TestX[0]
	a := s1.Validator.Score(s1.Net, x)
	b := s2.Validator.Score(s2.Net, x)
	if a.Joint != b.Joint {
		t.Fatalf("cached validator scores differently: %v vs %v", a.Joint, b.Joint)
	}
}

func TestScenarioUnknownName(t *testing.T) {
	l := quickLab(t)
	if _, err := l.Scenario("imagenet"); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

func TestCorpusStructure(t *testing.T) {
	l := quickLab(t)
	s, err := l.Scenario("digits")
	if err != nil {
		t.Fatal(err)
	}
	c, err := l.Corpus(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Sets) == 0 {
		t.Fatal("no corner-case sets")
	}
	total := 0
	for _, set := range c.Sets {
		if len(set.Images) != l.Scale.Seeds {
			t.Fatalf("%s has %d images, want %d", set.Family, len(set.Images), l.Scale.Seeds)
		}
		if set.SuccessRate < 0.3 {
			t.Fatalf("%s kept with success %v", set.Family, set.SuccessRate)
		}
		fcc := 0
		for i := range set.Images {
			if set.Preds[i] == set.SeedLabels[i] {
				fcc++
			}
		}
		if got := len(set.SCC()) + fcc; got != len(set.Images) {
			t.Fatalf("%s SCC+FCC = %d, want %d", set.Family, got, len(set.Images))
		}
		total += len(set.Images)
	}
	if len(c.CleanX) != total {
		t.Fatalf("clean set %d, want %d (Section IV-D1: equal counts)", len(c.CleanX), total)
	}
	// The greyscale scenario must consider complement.
	foundComplement := c.Set("complement") != nil
	droppedComplement := false
	for _, d := range c.Dropped {
		if d == "complement" {
			droppedComplement = true
		}
	}
	if !foundComplement && !droppedComplement {
		t.Fatal("complement neither kept nor dropped on greyscale data")
	}
}

func TestCorpusCachedRoundTrip(t *testing.T) {
	l := quickLab(t)
	s, err := l.Scenario("digits")
	if err != nil {
		t.Fatal(err)
	}
	c1, err := l.Corpus(s)
	if err != nil {
		t.Fatal(err)
	}
	l2 := NewLab(QuickScale(), l.CacheDir)
	s2, err := l2.Scenario("digits")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := l2.Corpus(s2)
	if err != nil {
		t.Fatal(err)
	}
	if len(c2.Sets) != len(c1.Sets) {
		t.Fatalf("cached corpus has %d sets, fresh %d", len(c2.Sets), len(c1.Sets))
	}
	if !c2.Sets[0].Images[0].AllClose(c1.Sets[0].Images[0], 0) {
		t.Fatal("cached corpus images differ")
	}
}

func TestTable3(t *testing.T) {
	l := quickLab(t)
	tab, err := l.Table3("digits")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 1 || tab.Rows[0][0] != "digits" {
		t.Fatalf("rows = %v", tab.Rows)
	}
	var buf bytes.Buffer
	tab.Render(&buf)
	if !strings.Contains(buf.String(), "Table III") {
		t.Fatal("render missing title")
	}
}

func TestTable5(t *testing.T) {
	l := quickLab(t)
	tab, err := l.Table5("digits")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 4 {
		t.Fatalf("Table V has %d rows", len(tab.Rows))
	}
	// Success rates parse back into [0.3, 1] for kept rows.
	for _, row := range tab.Rows {
		if row[2] == "-" {
			continue
		}
		if !strings.HasPrefix(row[2], "0.") && !strings.HasPrefix(row[2], "1.") {
			t.Fatalf("unparsable success rate %q", row[2])
		}
	}
}

func TestFigure2WritesImages(t *testing.T) {
	l := quickLab(t)
	dir := t.TempDir()
	files, err := l.Figure2("digits", dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 2 {
		t.Fatalf("Figure 2 wrote %d files", len(files))
	}
	for _, f := range files {
		st, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Fatalf("%s is empty", f)
		}
		if filepath.Ext(f) != ".pgm" {
			t.Fatalf("digits figure should be PGM, got %s", f)
		}
	}
}

func TestFigure3SeparatesDistributions(t *testing.T) {
	l := quickLab(t)
	d, err := l.Figure3("digits")
	if err != nil {
		t.Fatal(err)
	}
	if d.MeanSCC <= d.MeanClean {
		t.Fatalf("SCC mean %v not above clean mean %v", d.MeanSCC, d.MeanClean)
	}
	if len(d.CleanHist.Counts) != 200 || len(d.SCCHist.Counts) != 200 {
		t.Fatal("Figure 3 uses 200 histogram bins")
	}
	if d.SuggestEps <= d.MeanClean || d.SuggestEps >= d.MeanSCC {
		t.Fatalf("suggested ε %v outside (%v, %v)", d.SuggestEps, d.MeanClean, d.MeanSCC)
	}
	tab := d.Summary()
	if len(tab.Rows) != 2 {
		t.Fatal("summary should have two rows")
	}
}

func TestTable6Structure(t *testing.T) {
	l := quickLab(t)
	tab, err := l.Table6("digits")
	if err != nil {
		t.Fatal(err)
	}
	// 6 single validators + best + joint.
	if len(tab.Rows) != 8 {
		t.Fatalf("Table VI has %d rows, want 8", len(tab.Rows))
	}
	last := tab.Rows[len(tab.Rows)-1]
	if last[0] != "Joint Validator" {
		t.Fatalf("last row %v", last)
	}
	// The joint validator's overall AUC (last cell) must be high on the
	// easy digits scenario.
	overall := last[len(last)-1]
	if !(strings.HasPrefix(overall, "0.9") || strings.HasPrefix(overall, "1.0")) {
		t.Fatalf("joint overall AUC %q unexpectedly low", overall)
	}
}

func TestTable7DVBeatsKDE(t *testing.T) {
	l := quickLab(t)
	tab, err := l.Table7("digits")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("Table VII has %d rows, want 3", len(tab.Rows))
	}
	var dv, kde float64
	for _, row := range tab.Rows {
		var v float64
		if _, err := fmtSscan(row[2], &v); err != nil {
			t.Fatalf("unparsable AUC %q", row[2])
		}
		switch row[1] {
		case "Deep Validation":
			dv = v
		case "Kernel Density Estimation":
			kde = v
		}
	}
	// The paper's headline comparison: DV must dominate KDE on
	// real-world corner cases.
	if dv <= kde {
		t.Fatalf("DV AUC %v not above KDE %v", dv, kde)
	}
	if dv < 0.85 {
		t.Fatalf("DV AUC %v too low on digits", dv)
	}
}

func TestFigure4TracksDistortion(t *testing.T) {
	l := quickLab(t)
	pts, err := l.Figure4("digits", 0.059)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 9 {
		t.Fatalf("sweep has %d points, want 9 (ratio 1.0..3.0 step 0.25)", len(pts))
	}
	if pts[0].ScaleRatio != 1.0 || pts[len(pts)-1].ScaleRatio != 3.0 {
		t.Fatal("sweep endpoints wrong")
	}
	// At ratio 1.0 the images are the (correctly classified) seeds.
	if pts[0].SuccessRate != 0 {
		t.Fatalf("success rate at ratio 1.0 = %v, want 0", pts[0].SuccessRate)
	}
	// Deep Validation must detect SCCs well once they exist, and large
	// distortions must produce high success rates.
	lastWithSCC := -1
	for i, p := range pts {
		if p.NumSCC > 0 {
			lastWithSCC = i
		}
	}
	if lastWithSCC < 0 {
		t.Fatal("no scale ratio produced SCCs")
	}
	if rate := pts[lastWithSCC].DVSCCRate; rate < 0.5 {
		t.Fatalf("DV SCC detection rate %v at ratio %v too low", rate, pts[lastWithSCC].ScaleRatio)
	}
	tab := Fig4Table("digits", 0.059, pts)
	if len(tab.Rows) != len(pts) {
		t.Fatal("Fig4Table row count mismatch")
	}
}

func TestAttackSuiteAndTable8(t *testing.T) {
	if testing.Short() {
		t.Skip("attack battery is CPU-heavy; skipped in -short mode")
	}
	l := quickLab(t)
	s, err := l.Scenario("digits")
	if err != nil {
		t.Fatal(err)
	}
	suite, err := l.AttackSuite(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(suite) != 10 {
		t.Fatalf("attack suite has %d configurations, want 10 (Table VIII)", len(suite))
	}
	for _, o := range suite {
		if got := len(o.SAE) + len(o.FAE); got != l.Scale.AttackSeeds {
			t.Fatalf("%s (%s): %d samples, want %d", o.Method, o.Target, got, l.Scale.AttackSeeds)
		}
	}
	tab, err := l.Table8()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 11 { // 10 configs + overall
		t.Fatalf("Table VIII has %d rows", len(tab.Rows))
	}
	if tab.Rows[10][0] != "Overall" {
		t.Fatalf("missing overall row: %v", tab.Rows[10])
	}
}

func TestAblations(t *testing.T) {
	l := quickLab(t)
	tab, err := l.AblationWeightedJoint("digits")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("weighting ablation rows = %d", len(tab.Rows))
	}
	nuTab, err := l.AblationNu("digits", []float64{0.05, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if len(nuTab.Rows) != 2 {
		t.Fatalf("nu ablation rows = %d", len(nuTab.Rows))
	}
	rear, err := l.AblationRearLayers("digits")
	if err != nil {
		t.Fatal(err)
	}
	if len(rear.Rows) != 6 {
		t.Fatalf("rear-layer ablation rows = %d, want 6", len(rear.Rows))
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		Title:  "test",
		Header: []string{"a", "long header"},
		Notes:  []string{"a note"},
	}
	tab.AddRow("x", 0.5)
	tab.AddRow(1, "-")
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	for _, want := range []string{"test", "long header", "0.5000", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestScaleKeyDistinguishesScales(t *testing.T) {
	a := NewLab(QuickScale(), "")
	b := NewLab(FullScale(), "")
	if a.scaleKey() == b.scaleKey() {
		t.Fatal("different scales share a cache key")
	}
}

func fmtSscan(s string, v *float64) (int, error) {
	return fmt.Sscan(s, v)
}

func TestAblationNormalizedJoint(t *testing.T) {
	l := quickLab(t)
	tab, err := l.AblationNormalizedJoint("digits")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		var v float64
		if _, err := fmt.Sscan(row[1], &v); err != nil {
			t.Fatalf("unparsable AUC %q", row[1])
		}
		if v < 0.7 {
			t.Fatalf("%s AUC %v implausibly low", row[0], v)
		}
	}
}

func TestExtensionNovelTransforms(t *testing.T) {
	l := quickLab(t)
	tab, err := l.ExtensionNovelTransforms("digits")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestRenderHistograms(t *testing.T) {
	l := quickLab(t)
	d, err := l.Figure3("digits")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	d.RenderHistograms(&buf, 60, 8)
	out := buf.String()
	if !strings.Contains(out, "Figure 3") {
		t.Fatal("missing title")
	}
	// Clean marks must appear left of SCC marks on the whole: find the
	// mean column of each mark.
	meanCol := func(mark byte) float64 {
		sum, n := 0, 0
		for _, line := range strings.Split(out, "\n") {
			for i := 0; i < len(line); i++ {
				if line[i] == mark || (mark == '#' && line[i] == 'o') || (mark == 'x' && line[i] == 'o') {
					sum += i
					n++
				}
			}
		}
		if n == 0 {
			return -1
		}
		return float64(sum) / float64(n)
	}
	c, s := meanCol('#'), meanCol('x')
	if c < 0 || s < 0 {
		t.Fatal("one population has no marks")
	}
	if c >= s {
		t.Fatalf("clean marks (col %v) not left of SCC marks (col %v)", c, s)
	}
}

func TestRenderMarkdown(t *testing.T) {
	tab := &Table{Title: "T", Header: []string{"a", "b"}, Notes: []string{"n"}}
	tab.AddRow("x", 1.0)
	var buf bytes.Buffer
	tab.RenderMarkdown(&buf)
	out := buf.String()
	for _, want := range []string{"### T", "| a | b |", "| --- | --- |", "| x | 1.0000 |", "*n*"} {
		if !strings.Contains(out, want) {
			t.Fatalf("markdown missing %q:\n%s", want, out)
		}
	}
}

// update rewrites the reproduction golden instead of comparing with it:
//
//	go test ./internal/experiment -run TestReproductionGolden -update
var update = flag.Bool("update", false, "rewrite testdata/digits_quick.md from the quick lab")

// TestReproductionGolden pins the quick-scale digits report byte for
// byte: Tables III, V, VI, VII and VIII and Figures 3 and 4, rendered
// as `dvbench -exp table3,table5,fig3,table6,table7,table8,fig4 -scale
// quick -dataset digits -format markdown` writes them. The shape tests
// above hold while a paper number moves; this one does not. It stays
// last in the file so it renders from the lab the other tests warmed.
// The bytes come from linux/amd64; other platforms may round fused
// operations differently, so the test skips there.
func TestReproductionGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the reproduction golden is recorded on amd64")
	}
	l := quickLab(t)
	var buf bytes.Buffer
	for _, id := range []string{"table3", "table5", "fig3", "table6", "table7", "table8", "fig4"} {
		if err := l.Render(&buf, id, []string{"digits"}, true, ""); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	const golden = "testdata/digits_quick.md"
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create it): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("quick digits report differs from %s (rerun with -update and read git diff; each moved number needs its cause named):\n%s",
			golden, buf.Bytes())
	}
	// Only markdown fences Figure 3's histogram.
	var text bytes.Buffer
	if err := l.Render(&text, "fig3", []string{"digits"}, false, ""); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(text.String(), "```") {
		t.Fatalf("text-format Figure 3 contains a code fence:\n%s", text.String())
	}
}
