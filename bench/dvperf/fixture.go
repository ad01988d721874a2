package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"deepvalidation"
	"deepvalidation/internal/artifact"
	"deepvalidation/internal/core"
	"deepvalidation/internal/corner"
	"deepvalidation/internal/dataset"
	"deepvalidation/internal/experiment"
	"deepvalidation/internal/nn"
	"deepvalidation/internal/serve"
	"deepvalidation/internal/tensor"
)

// fixtureRecipe names the training recipe below; change it whenever the
// recipe changes so cached fixtures are rebuilt.
const fixtureRecipe = "dvperf-fixture-1"

// fixture is what every run measures against: a trained classifier and
// its fitted validator, in memory and as .dvart artifacts, plus the data
// they came from and the fit configuration the fit workload reruns.
type fixture struct {
	name      string
	net       *nn.Network
	val       *core.Validator
	fitCfg    core.Config
	trainX    []*tensor.Tensor
	trainY    []int
	testX     []*tensor.Tensor // held-out clean images: ε calibration and traffic bases
	grayscale bool

	modelPath, valPath string
	modelSHA, valSHA   string // artifact payload SHA-256, as dvserve's /readyz reports them
	valGob             []byte // the validator's gob encoding: the fit workload's reference
}

// loadFixture returns the named fixture. Training is the slow part, so
// the artifacts are cached under work, keyed by a hash of the
// repository's Go sources, the recipe and GOMAXPROCS (training splits
// minibatches by core count). Any source change therefore retrains; the
// datasets are regenerated on every run, which is cheap and exact.
func loadFixture(name, root, work string) (*fixture, bool, error) {
	fx := &fixture{name: name}
	var train func() (*nn.Network, *core.Validator, error)
	switch name {
	case "digits":
		// The experiment.QuickScale digits scenario: 1200 train and 300
		// test images, the seven-layer CNN at width 6 with FC 32, and a
		// validator with ν 0.1, 60 samples per class and 128 features.
		sc := experiment.QuickScale()
		ds := dataset.Digits(dataset.Config{TrainN: sc.TrainN, TestN: sc.TestN, Seed: 1})
		fx.trainX, fx.trainY, fx.testX, fx.grayscale = ds.TrainX, ds.TrainY, ds.TestX, true
		fx.fitCfg = core.Config{Nu: sc.Nu, MaxPerClass: sc.SVMPerClass, MaxFeatures: sc.SVMFeatures, Workers: 2}
		train = func() (*nn.Network, *core.Validator, error) {
			lab := experiment.NewLab(sc, "")
			lab.Workers = 2
			s, err := lab.Scenario("digits")
			if err != nil {
				return nil, nil, err
			}
			return s.Net, s.Validator, nil
		}
	case "band":
		// The 8×8 three-class band corpus the fleet load generator uses:
		// a detector fits in about a second.
		imgs, labels := bandImages(1, 90)
		test, _ := bandImages(2, 60)
		fx.trainX, fx.trainY, fx.grayscale = tensorsOf(imgs), labels, true
		fx.testX = tensorsOf(test)
		fx.fitCfg = core.Config{Nu: 0.1, MaxPerClass: 30, MaxFeatures: 64, Workers: 2}
		train = func() (*nn.Network, *core.Validator, error) {
			det, err := deepvalidation.Build(imgs, labels, deepvalidation.BuildConfig{
				Classes: 3, Epochs: 6, Width: 4, FCWidth: 16,
				SVMPerClass: 30, SVMFeatures: 64, Seed: 5, Workers: 2,
			})
			if err != nil {
				return nil, nil, err
			}
			dir, err := os.MkdirTemp(work, "band-*")
			if err != nil {
				return nil, nil, err
			}
			defer os.RemoveAll(dir)
			m, v := filepath.Join(dir, "m.dvart"), filepath.Join(dir, "v.dvart")
			if err := det.Save(m, v); err != nil {
				return nil, nil, err
			}
			net, err := nn.Load(m)
			if err != nil {
				return nil, nil, err
			}
			val, err := core.LoadValidator(v)
			return net, val, err
		}
	default:
		return nil, false, fmt.Errorf("unknown fixture %q (want digits or band)", name)
	}

	key, err := sourceKey(root, fixtureRecipe, name, strconv.Itoa(runtime.GOMAXPROCS(0)))
	if err != nil {
		return nil, false, fmt.Errorf("hashing sources: %w", err)
	}
	dir := filepath.Join(work, "fixture-"+name+"-"+key[:16])
	fx.modelPath = filepath.Join(dir, "model.dvart")
	fx.valPath = filepath.Join(dir, "validator.dvart")
	trained := false
	if _, err := os.Stat(fx.valPath); err != nil {
		net, val, err := train()
		if err != nil {
			return nil, false, fmt.Errorf("training the %s fixture: %w", name, err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, false, err
		}
		if err := net.Save(fx.modelPath); err != nil {
			return nil, false, err
		}
		if err := val.Save(fx.valPath); err != nil {
			return nil, false, err
		}
		trained = true
	}
	// Always measure the artifacts as loaded from disk, so a run that
	// trained and a run that reused the cache see identical objects.
	if fx.net, err = nn.Load(fx.modelPath); err != nil {
		return nil, false, err
	}
	if fx.val, err = core.LoadValidator(fx.valPath); err != nil {
		return nil, false, err
	}
	var buf bytes.Buffer
	if err := fx.val.Encode(&buf); err != nil {
		return nil, false, err
	}
	fx.valGob = buf.Bytes()
	for _, a := range []struct {
		path string
		sha  *string
	}{{fx.modelPath, &fx.modelSHA}, {fx.valPath, &fx.valSHA}} {
		info, err := artifact.ReadHeader(a.path)
		if err != nil {
			return nil, false, err
		}
		*a.sha = info.Header.PayloadSHA256
	}
	return fx, trained, nil
}

// sourceKey hashes parts plus every non-test Go source of the module at
// root (the bench module and hidden directories excluded).
func sourceKey(root string, parts ...string) (string, error) {
	h := sha256.New()
	for _, p := range parts {
		io.WriteString(h, p+"\x00")
	}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || rel == "bench") {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if strings.HasSuffix(name, "_test.go") || !(strings.HasSuffix(name, ".go") || strings.HasSuffix(name, ".s") || name == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(data))
		h.Write(data)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil)), err
}

// bandImages synthesizes the 3-class horizontal-band corpus: class k is
// a bright three-row band starting at row 2k on an 8×8 dark field.
func bandImages(seed int64, n int) ([]deepvalidation.Image, []int) {
	rng := rand.New(rand.NewSource(seed))
	imgs := make([]deepvalidation.Image, 0, n)
	labels := make([]int, 0, n)
	for i := 0; i < n; i++ {
		k := rng.Intn(3)
		px := make([]float64, 64)
		for j := range px {
			px[j] = 0.15 * rng.Float64()
		}
		for y := 2 * k; y < 2*k+3; y++ {
			for x := 0; x < 8; x++ {
				px[y*8+x] = 0.8 + 0.2*rng.Float64()
			}
		}
		imgs = append(imgs, deepvalidation.Image{Channels: 1, Height: 8, Width: 8, Pixels: px})
		labels = append(labels, k)
	}
	return imgs, labels
}

func tensorsOf(imgs []deepvalidation.Image) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(imgs))
	for i, im := range imgs {
		out[i] = tensor.From(append([]float64(nil), im.Pixels...), im.Channels, im.Height, im.Width)
	}
	return out
}

func imageOf(t *tensor.Tensor) deepvalidation.Image {
	return deepvalidation.Image{Channels: t.Shape[0], Height: t.Shape[1], Width: t.Shape[2], Pixels: append([]float64(nil), t.Data...)}
}

// cornerShare is the fraction of traffic images replaced by a
// corner-case variant, so that both valid and flagged verdicts occur.
const cornerShare = 0.25

// pool is one run's traffic: images drawn from the seed, the reference
// verdict of each, and the pre-encoded /v1/check body of each (encoding
// ahead of time keeps the client's JSON work out of the measurement).
type pool struct {
	imgs    []deepvalidation.Image
	xs      []*tensor.Tensor
	ref     []deepvalidation.Verdict
	bodies  [][]byte
	corner  int
	flagged int
}

// buildPool draws n traffic images from the fixture's held-out images;
// a cornerShare of them become a variant under a random transformation
// from the internal/corner parameter spaces. Reference verdicts come
// from ref, which must score with one worker.
func buildPool(fx *fixture, ref *deepvalidation.Detector, seed int64, n int) (*pool, error) {
	rng := rand.New(rand.NewSource(seed))
	s := fx.testX[0].Shape
	spaces := corner.Spaces(fx.grayscale, s[1], s[2])
	p := &pool{}
	for i := 0; i < n; i++ {
		x := fx.testX[rng.Intn(len(fx.testX))]
		if rng.Float64() < cornerShare {
			sp := spaces[rng.Intn(len(spaces))]
			x = sp.Make(sp.Sample(rng)).Apply(x)
			p.corner++
		}
		img := imageOf(x)
		body, err := json.Marshal(serve.CheckRequest{Channels: img.Channels, Height: img.Height, Width: img.Width, Pixels: img.Pixels})
		if err != nil {
			return nil, err
		}
		p.imgs = append(p.imgs, img)
		p.xs = append(p.xs, tensor.From(img.Pixels, s...))
		p.bodies = append(p.bodies, body)
	}
	var err error
	if p.ref, err = ref.CheckBatch(p.imgs); err != nil {
		return nil, fmt.Errorf("reference verdicts: %w", err)
	}
	for _, v := range p.ref {
		if !v.Valid {
			p.flagged++
		}
	}
	return p, nil
}

// sameVerdict compares a served verdict with the reference exactly: Go's
// float JSON encoding round-trips, so any difference is a real one.
func sameVerdict(got serve.VerdictResponse, want deepvalidation.Verdict) bool {
	return got.Label == want.Label && got.Confidence == want.Confidence &&
		got.Discrepancy == want.Discrepancy && got.Valid == want.Valid &&
		got.Quarantined == want.Quarantined && got.PerLayer == nil
}
