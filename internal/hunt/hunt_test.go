package hunt

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"deepvalidation/internal/core"
	"deepvalidation/internal/corner"
	"deepvalidation/internal/metrics"
	"deepvalidation/internal/nn"
	"deepvalidation/internal/opt"
	"deepvalidation/internal/tensor"
)

// toyProblem builds a linearly separable 3-class problem on 1×8×8
// images (bright band at a class-specific height) — the same toy the
// corner package's tests train on.
func toyProblem(rng *rand.Rand, n int) (xs []*tensor.Tensor, ys []int) {
	for i := 0; i < n; i++ {
		k := rng.Intn(3)
		img := tensor.New(1, 8, 8).FillUniform(rng, 0, 0.15)
		for y := 2 * k; y < 2*k+3; y++ {
			for x := 0; x < 8; x++ {
				img.Set(0.8+0.2*rng.Float64(), 0, y, x)
			}
		}
		xs = append(xs, img)
		ys = append(ys, k)
	}
	return xs, ys
}

var fixture struct {
	once    sync.Once
	tgt     Target
	epsilon float64
	seedX   []*tensor.Tensor
	seedY   []int
	err     error
}

// toyTarget trains a small CNN on the toy problem, fits a validator
// with the drift reference, calibrates ε on held-out clean images, and
// selects correctly classified seeds — one detector for every hunt
// test.
func toyTarget(t *testing.T) (Target, float64, []*tensor.Tensor, []int) {
	t.Helper()
	fixture.once.Do(func() {
		fail := func(err error) { fixture.err = err }
		rng := rand.New(rand.NewSource(11))
		net, err := nn.NewSevenLayerCNN("toy", 1, 8, 3, nn.ArchConfig{Width: 4, FCWidth: 16}, rng)
		if err != nil {
			fail(err)
			return
		}
		xs, ys := toyProblem(rng, 150)
		tr := nn.NewTrainer(net, opt.NewAdadelta(1.0, 0.95), rand.New(rand.NewSource(12)))
		tr.BatchSize = 16
		stats, err := tr.Train(xs, ys, 20)
		if err != nil {
			fail(err)
			return
		}
		if acc := stats[len(stats)-1].Accuracy; acc < 0.95 {
			fail(fmt.Errorf("toy accuracy %v too low", acc))
			return
		}
		val, err := core.Fit(net, xs, ys, core.Config{Nu: 0.1, MaxPerClass: 60, MaxFeatures: 64, Workers: 2})
		if err != nil {
			fail(err)
			return
		}
		if !val.HasDriftReference() {
			fail(fmt.Errorf("fit recorded no drift reference"))
			return
		}
		cleanX, cleanY := toyProblem(rand.New(rand.NewSource(50)), 90)
		fixture.epsilon = metrics.ThresholdForFPR(core.JointScores(val.ScoreBatchWorkers(net, cleanX, 0)), 0.1)
		fixture.seedX, fixture.seedY, err = corner.SelectSeeds(net, cleanX, cleanY, 12, rand.New(rand.NewSource(51)))
		if err != nil {
			fail(err)
			return
		}
		fixture.tgt = Target{Net: net, Val: val}
	})
	if fixture.err != nil {
		t.Fatal(fixture.err)
	}
	return fixture.tgt, fixture.epsilon, fixture.seedX, fixture.seedY
}

func toySpaces() []corner.Space { return corner.Spaces(true, 8, 8) }

func TestChainCloneDoesNotAlias(t *testing.T) {
	c := Chain{{Family: "brightness", Params: []float64{0.3}}}
	d := c.Clone()
	d[0].Params[0] = -0.5
	if c[0].Params[0] != 0.3 {
		t.Fatalf("Clone aliases parameter storage: %v", c[0].Params[0])
	}
}

func TestChainKeyCanonical(t *testing.T) {
	a := Chain{{Family: "rotation", Params: []float64{30}}, {Family: "blur", Params: []float64{1.5}}}
	b := Chain{{Family: "rotation", Params: []float64{30}}, {Family: "blur", Params: []float64{1.5}}}
	if a.Key() != b.Key() {
		t.Fatalf("identical chains disagree on key: %q vs %q", a.Key(), b.Key())
	}
	c := Chain{{Family: "blur", Params: []float64{1.5}}, {Family: "rotation", Params: []float64{30}}}
	if a.Key() == c.Key() {
		t.Fatal("stage order lost in key")
	}
	if got := a.FamilyKey(); got != "rotation+blur" {
		t.Fatalf("FamilyKey = %q", got)
	}
	if got := (Chain{}).FamilyKey(); got != "identity" {
		t.Fatalf("empty FamilyKey = %q", got)
	}
}

func TestChainMaterialize(t *testing.T) {
	spaces := toySpaces()
	c := Chain{{Family: "brightness", Params: []float64{0.4}}, {Family: "complement", Params: nil}}
	tr, err := c.Materialize(spaces)
	if err != nil {
		t.Fatal(err)
	}
	img := tensor.New(1, 8, 8)
	out := tr.Apply(img)
	// brightness +0.4 then complement: 1 − (0 + 0.4) = 0.6 everywhere.
	if got := out.At(0, 3, 3); math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("composed transform applied wrong: got %v, want 0.6", got)
	}

	if _, err := (Chain{{Family: "nope", Params: nil}}).Materialize(spaces); err == nil {
		t.Fatal("unknown family materialized")
	}
	if _, err := (Chain{{Family: "brightness", Params: []float64{1, 2}}}).Materialize(spaces); err == nil {
		t.Fatal("wrong parameter count materialized")
	}
	// Out-of-range parameters clamp rather than fail: a scale of 0 would
	// be a singular affine matrix, so the clamp is load-bearing.
	wild := Chain{{Family: "scale", Params: []float64{0, 1e9}}}
	tr, err = wild.Materialize(spaces)
	if err != nil {
		t.Fatal(err)
	}
	out = tr.Apply(tensor.New(1, 8, 8).Fill(0.5))
	for _, v := range out.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("clamped wild chain produced non-finite pixels")
		}
	}
}

func TestMutatorStaysInBoundsAndNonEmpty(t *testing.T) {
	spaces := toySpaces()
	m := &Mutator{Spaces: spaces, MaxStages: 3}
	rng := rand.New(rand.NewSource(1))
	c := m.Random(rng)
	for step := 0; step < 2000; step++ {
		c = m.Mutate(c, rng)
		if len(c) == 0 || len(c) > m.MaxStages {
			t.Fatalf("step %d: chain length %d outside [1, %d]", step, len(c), m.MaxStages)
		}
		for _, st := range c {
			sp, ok := corner.SpaceByFamily(spaces, st.Family)
			if !ok {
				t.Fatalf("step %d: unknown family %q", step, st.Family)
			}
			if len(st.Params) != len(sp.Params) {
				t.Fatalf("step %d: family %q carries %d params, want %d", step, st.Family, len(st.Params), len(sp.Params))
			}
		}
		if _, err := c.Materialize(spaces); err != nil {
			t.Fatalf("step %d: mutator output fails to materialize: %v", step, err)
		}
	}
}

func TestMutatorDeterministic(t *testing.T) {
	spaces := toySpaces()
	m := &Mutator{Spaces: spaces, MaxStages: 3}
	run := func() []string {
		rng := rand.New(rand.NewSource(9))
		c := m.Random(rng)
		keys := []string{c.Key()}
		for i := 0; i < 200; i++ {
			c = m.Mutate(c, rng)
			keys = append(keys, c.Key())
		}
		return keys
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("mutation %d diverged for a fixed seed:\n%s\n%s", i, a[i], b[i])
		}
	}
}

func TestCoverageBinsAndNovelty(t *testing.T) {
	quantiles := [][]float64{{-1, 0, 1}, {-2, 0, 2}}
	cov := NewCoverage(quantiles)
	if cov == nil {
		t.Fatal("NewCoverage rejected a well-formed reference")
	}
	if !cov.Observe(0, []float64{-5, -5}) {
		t.Fatal("first signature not novel")
	}
	if cov.Observe(0, []float64{-5, -5}) {
		t.Fatal("repeated signature reported novel")
	}
	if !cov.Observe(1, []float64{-5, -5}) {
		t.Fatal("same bins under a different label should be novel")
	}
	if !cov.Observe(0, []float64{5, 5}) {
		t.Fatal("top bins not novel")
	}
	if cov.Observe(0, []float64{math.NaN(), 0}) {
		t.Fatal("non-finite vector reported novel")
	}
	if cov.Observe(0, []float64{0}) {
		t.Fatal("wrong-arity vector reported novel")
	}
	if got := cov.Signatures(); got != 3 {
		t.Fatalf("Signatures = %d, want 3", got)
	}
	hit, total := cov.Bins()
	if total != 8 {
		t.Fatalf("total bins = %d, want 8 (two layers × four bins)", total)
	}
	if hit != 4 {
		t.Fatalf("hit bins = %d, want 4", hit)
	}
	if NewCoverage(nil) != nil || NewCoverage([][]float64{{0.5}}) != nil {
		t.Fatal("malformed references should yield a nil coverage map")
	}
	var nilCov *Coverage
	if nilCov.Observe(0, []float64{1}) || nilCov.Signatures() != 0 {
		t.Fatal("nil coverage map is not inert")
	}
}

func testEscape(seedVal float64) *Escape {
	seed := tensor.New(1, 8, 8).Fill(seedVal)
	return &Escape{
		ModelName:         "toy",
		SeedShape:         []int{1, 8, 8},
		SeedData:          append([]float64(nil), seed.Data...),
		SeedLabel:         0,
		Chain:             Chain{{Family: "brightness", Params: []float64{0.4}}},
		TransformedSHA256: TensorSHA256(tensor.New(1, 8, 8).Fill(seedVal + 0.4)),
		Pred:              2,
		Confidence:        0.9,
		Joint:             -1.5,
		Epsilon:           1.0,
	}
}

// TestEscapeIDPinned pins the content-addressed ID of a fixed escape to
// a literal. The ID must hash the canonical field fingerprint, never the
// gob payload: gob assigns type IDs in global first-use order, so
// payload bytes (and a payload-derived ID) change in processes that
// gob-encoded other types first. dvbench -hunt runs the experiment lab
// before it loads a corpus, so a payload-derived ID would make it
// reject every manifest.
func TestEscapeIDPinned(t *testing.T) {
	id, err := testEscape(0.1).ID()
	if err != nil {
		t.Fatal(err)
	}
	if want := "escape-738c033bccaf"; id != want {
		t.Fatalf("pinned escape ID drifted: got %s, want %s (an intentional identity-scheme change must bump escapeVersion and regenerate committed corpora)", id, want)
	}
}

func TestCorpusAddDedupes(t *testing.T) {
	c := &Corpus{}
	if added, err := c.Add(testEscape(0.1)); err != nil || !added {
		t.Fatalf("first Add = (%v, %v)", added, err)
	}
	if added, err := c.Add(testEscape(0.1)); err != nil || added {
		t.Fatalf("identical Add = (%v, %v), want deduplicated", added, err)
	}
	if added, err := c.Add(testEscape(0.2)); err != nil || !added {
		t.Fatalf("distinct Add = (%v, %v)", added, err)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestCorpusSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c := &Corpus{}
	for _, v := range []float64{0.3, 0.1, 0.2} {
		if _, err := c.Add(testEscape(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Save(dir, toySpaces(), "toy", 1.0); err != nil {
		t.Fatal(err)
	}
	got, m, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Model != "toy" || m.Epsilon != 1.0 || m.Version != 1 {
		t.Fatalf("manifest header = %+v", m)
	}
	if got.Len() != 3 {
		t.Fatalf("loaded %d escapes, want 3", got.Len())
	}
	for i := 1; i < len(m.Escapes); i++ {
		if m.Escapes[i-1].ID >= m.Escapes[i].ID {
			t.Fatal("manifest not sorted by ID")
		}
	}
	for i, e := range got.Escapes {
		id, err := e.ID()
		if err != nil {
			t.Fatal(err)
		}
		if id != m.Escapes[i].ID {
			t.Fatalf("escape %d ID %s != manifest %s", i, id, m.Escapes[i].ID)
		}
		img, match, err := e.CornerImage()
		if err != nil {
			t.Fatal(err)
		}
		if !match {
			t.Fatalf("escape %d: replayed pixels differ from pinned checksum", i)
		}
		if img.Shape[0] != 1 || img.Shape[1] != 8 || img.Shape[2] != 8 {
			t.Fatalf("escape %d: replayed shape %v", i, img.Shape)
		}
	}

	// A corrupted artifact must be rejected, not silently replayed.
	raw, err := os.ReadFile(filepath.Join(dir, m.Escapes[0].File))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(filepath.Join(dir, m.Escapes[0].File), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadCorpus(dir); err == nil {
		t.Fatal("LoadCorpus accepted a corrupted escape artifact")
	}
}

func TestEscapeValidateRejectsGarbage(t *testing.T) {
	bad := testEscape(0.1)
	bad.Version = escapeVersion
	bad.SeedData = bad.SeedData[:5]
	if err := bad.Validate(); err == nil {
		t.Fatal("short seed data validated")
	}
	bad = testEscape(0.1)
	bad.Version = escapeVersion
	bad.Chain = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("empty chain validated")
	}
	bad = testEscape(0.1)
	bad.Version = escapeVersion
	bad.Joint = math.NaN()
	if err := bad.Validate(); err == nil {
		t.Fatal("NaN verdict validated")
	}
}

func TestMinimizeDropsStagesAndShrinksParams(t *testing.T) {
	tgt, _, seedX, _ := toyTarget(t)
	spaces := toySpaces()
	chain := Chain{
		{Family: "brightness", Params: []float64{0.5}},
		{Family: "rotation", Params: []float64{40}},
		{Family: "blur", Params: []float64{2}},
	}
	// accept-everything: minimization must collapse to one stage with
	// near-neutral parameters.
	min, _, evals := Minimize(tgt, seedX[0], chain, spaces, func(core.Result) bool { return true })
	if len(min) != 1 {
		t.Fatalf("minimized to %d stages, want 1", len(min))
	}
	if evals <= 1 {
		t.Fatalf("evals = %d, want > 1", evals)
	}
	sp, _ := corner.SpaceByFamily(spaces, min[0].Family)
	for j, r := range sp.Params {
		dist := math.Abs(min[0].Params[j] - r.Neutral)
		full := math.Abs(r.Max - r.Min)
		if dist > full/100 {
			t.Fatalf("param %s not shrunk toward neutral: %v (neutral %v)", r.Name, min[0].Params[j], r.Neutral)
		}
	}

	// accept-nothing-simpler: the original chain must come back intact.
	orig := chain.Key()
	min, _, _ = Minimize(tgt, seedX[0], chain, spaces, func(core.Result) bool { return false })
	if min.Key() != orig {
		t.Fatalf("minimizer changed a chain it could not simplify:\n%s\n%s", orig, min.Key())
	}
	if chain.Key() != orig {
		t.Fatal("Minimize mutated its input chain")
	}
}

// huntOnce runs a fixed-seed hunt and saves corpus + report to dir.
func huntOnce(t *testing.T, dir string, workers int) (*Corpus, *Report) {
	t.Helper()
	tgt, eps, seedX, seedY := toyTarget(t)
	cfg := Config{
		Budget:    2400,
		BatchSize: 64,
		Seed:      7,
		Workers:   workers,
		Epsilon:   eps,
	}
	corpus, report, err := Hunt(tgt, seedX, seedY, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := corpus.Save(dir, toySpaces(), tgt.Net.ModelName, eps); err != nil {
		t.Fatal(err)
	}
	if err := report.Save(filepath.Join(dir, RatesName)); err != nil {
		t.Fatal(err)
	}
	return corpus, report
}

func TestHuntFindsMinimizedEscapes(t *testing.T) {
	dir := t.TempDir()
	corpus, report, eps := func() (*Corpus, *Report, float64) {
		_, eps, _, _ := toyTarget(t)
		c, r := huntOnce(t, dir, 0)
		return c, r, eps
	}()
	if report.Escapes+report.NearEscapes == 0 {
		t.Fatalf("hunt found no escapes within budget %d (eps=%v)", report.Budget, eps)
	}
	if corpus.Len() == 0 {
		t.Fatal("hunt saved no escapes")
	}
	if report.Evals != report.Budget {
		t.Fatalf("spent %d evals for budget %d", report.Evals, report.Budget)
	}
	if report.Signatures == 0 || report.BinsHit == 0 {
		t.Fatalf("coverage never advanced: %d signatures, %d bins", report.Signatures, report.BinsHit)
	}
	if len(report.Rows) == 0 {
		t.Fatal("report has no per-composition rows")
	}
	evals := 0
	for _, row := range report.Rows {
		evals += row.Evals
	}
	if evals != report.Evals {
		t.Fatalf("per-composition evals sum to %d, report says %d", evals, report.Evals)
	}

	tgt, _, _, _ := toyTarget(t)
	for i, e := range corpus.Escapes {
		if err := e.Validate(); err != nil {
			t.Fatalf("escape %d invalid: %v", i, err)
		}
		// The recorded verdict must reproduce exactly on replay.
		img, match, err := e.CornerImage()
		if err != nil {
			t.Fatal(err)
		}
		if !match {
			t.Fatalf("escape %d: pixel pin broken immediately after mining", i)
		}
		res := tgt.Val.Score(tgt.Net, img)
		if res.Label != e.Pred || res.Joint != e.Joint || res.Confidence != e.Confidence {
			t.Fatalf("escape %d: recorded verdict (%d, %v, %v) does not reproduce (%d, %v, %v)",
				i, e.Pred, e.Confidence, e.Joint, res.Label, res.Confidence, res.Joint)
		}
		if res.Label == e.SeedLabel {
			t.Fatalf("escape %d is not a misprediction", i)
		}
		bound := e.Epsilon
		if e.Near {
			bound = 1.1 * e.Epsilon
		}
		if !(res.Joint < bound) {
			t.Fatalf("escape %d: joint %v not under bound %v (near=%v)", i, res.Joint, bound, e.Near)
		}
	}

	// Replay straight from disk: every mined escape still escapes
	// against the detector it was mined on.
	loaded, _, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	outcomes, err := Replay(tgt, loaded, eps, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, oc := range outcomes {
		if !oc.PixelsMatch {
			t.Fatalf("%s: transformed-pixel drift on immediate replay", oc.ID)
		}
	}
}

func TestHuntDeterministicAcrossWorkerCounts(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	huntOnce(t, dirA, 1)
	huntOnce(t, dirB, 4)
	entriesA, err := os.ReadDir(dirA)
	if err != nil {
		t.Fatal(err)
	}
	entriesB, err := os.ReadDir(dirB)
	if err != nil {
		t.Fatal(err)
	}
	if len(entriesA) != len(entriesB) {
		t.Fatalf("corpus trees differ in size: %d vs %d files", len(entriesA), len(entriesB))
	}
	if len(entriesA) < 2 {
		t.Fatalf("corpus tree suspiciously small: %d files", len(entriesA))
	}
	for i := range entriesA {
		na, nb := entriesA[i].Name(), entriesB[i].Name()
		if na != nb {
			t.Fatalf("file %d name differs: %s vs %s", i, na, nb)
		}
		a, err := os.ReadFile(filepath.Join(dirA, na))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirB, nb))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s differs between workers=1 and workers=4 runs", na)
		}
	}
}

func TestHuntRejectsBadInputs(t *testing.T) {
	tgt, eps, seedX, seedY := toyTarget(t)
	if _, _, err := Hunt(Target{}, seedX, seedY, Config{Epsilon: eps}); err == nil {
		t.Fatal("empty target accepted")
	}
	if _, _, err := Hunt(tgt, nil, nil, Config{Epsilon: eps}); err == nil {
		t.Fatal("no seeds accepted")
	}
	if _, _, err := Hunt(tgt, seedX, seedY[:1], Config{Epsilon: eps}); err == nil {
		t.Fatal("mismatched labels accepted")
	}
	if _, _, err := Hunt(tgt, seedX, seedY, Config{Epsilon: 0}); err == nil {
		t.Fatal("zero epsilon accepted")
	}
	xs, ys := toyProblem(rand.New(rand.NewSource(13)), 60)
	noDrift, err := core.Fit(tgt.Net, xs, ys, core.Config{Nu: 0.1, MaxPerClass: 40, MaxFeatures: 32, Workers: 2, SkipDriftSnapshot: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Hunt(Target{Net: tgt.Net, Val: noDrift}, seedX, seedY, Config{Epsilon: eps}); err == nil {
		t.Fatal("drift-less validator accepted")
	}
}
