// Package experiment reproduces every table and figure of the paper's
// evaluation (Section IV) on the synthetic dataset substitutes: model
// training (Table III), corner-case synthesis (Table V, Figure 2),
// Deep Validation scoring (Figure 3, Table VI), baseline comparisons
// (Table VII), white-box attacks (Table VIII), and the distortion sweep
// (Figure 4), plus the ablations DESIGN.md calls out.
//
// A Lab owns the expensive artifacts — trained classifiers, fitted
// validators, synthesized corner-case corpora — and caches them on disk
// so each experiment runs from the same inputs without retraining.
package experiment

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"path/filepath"

	"deepvalidation/internal/core"
	"deepvalidation/internal/dataset"
	"deepvalidation/internal/nn"
	"deepvalidation/internal/opt"
	"deepvalidation/internal/telemetry"
	"deepvalidation/internal/tensor"
)

// Scale sizes every experiment. FullScale approximates the paper's
// setup at CPU-tractable sizes; QuickScale keeps tests and benchmarks
// fast.
type Scale struct {
	// TrainN/TestN size each generated dataset.
	TrainN, TestN int
	// EpochsCNN / EpochsDenseNet are the training budgets.
	EpochsCNN      int
	EpochsDenseNet int
	// Width / FCWidth / Growth / BlockConvs size the models.
	Width, FCWidth, Growth, BlockConvs int
	// Seeds is the corner-case seed count (paper: 200).
	Seeds int
	// AttackSeeds is the Table VIII seed count (paper: 200; reduced for
	// the CPU-bound CW/JSMA loops).
	AttackSeeds int
	// SVMPerClass / SVMFeatures cap Deep Validation's SVM training.
	SVMPerClass, SVMFeatures int
	// Nu is the one-class SVM ν.
	Nu float64
}

// FullScale returns the paper-faithful CPU configuration.
func FullScale() Scale {
	return Scale{
		TrainN: 2500, TestN: 800,
		EpochsCNN: 8, EpochsDenseNet: 24,
		Width: 8, FCWidth: 64, Growth: 8, BlockConvs: 4,
		Seeds:       200,
		AttackSeeds: 100,
		SVMPerClass: 200, SVMFeatures: 256,
		Nu: 0.1,
	}
}

// QuickScale returns a configuration small enough for unit tests and
// testing.B benchmarks; every code path is identical to FullScale.
// The CNN scenarios (digits, streetdigits) train to usable accuracy at
// this size; the DenseNet scenario needs FullScale to converge, so
// quick tests and benchmarks stick to the CNN scenarios.
func QuickScale() Scale {
	return Scale{
		TrainN: 1200, TestN: 300,
		EpochsCNN: 8, EpochsDenseNet: 8,
		Width: 6, FCWidth: 32, Growth: 6, BlockConvs: 2,
		Seeds:       40,
		AttackSeeds: 4,
		SVMPerClass: 60, SVMFeatures: 128,
		Nu: 0.1,
	}
}

// Scenario bundles a dataset with its trained classifier and fitted
// validator — everything the detection experiments consume.
type Scenario struct {
	Name      string
	Dataset   *dataset.Dataset
	Net       *nn.Network
	Validator *core.Validator
	Grayscale bool
	// TestAcc / TestConf are the Table III numbers, recorded at build
	// time.
	TestAcc, TestConf float64
}

// Lab builds, caches, and serves scenarios and runs experiments.
type Lab struct {
	Scale Scale
	// CacheDir persists trained artifacts between runs; empty disables
	// caching.
	CacheDir string
	// Log receives progress lines; nil silences them.
	Log io.Writer
	// Workers bounds the scoring and fitting worker pools
	// (0 = GOMAXPROCS, 1 = sequential). Results are identical for every
	// setting, so it is deliberately excluded from the artifact cache
	// fingerprint.
	Workers int
	// Telemetry, when non-nil, instruments every scenario validator
	// the lab builds or loads (score latency, per-layer discrepancy
	// histograms) and the fitting stages. Like Workers it never
	// affects results, so it too is excluded from the cache
	// fingerprint.
	Telemetry *telemetry.Registry

	scenarios map[string]*Scenario
	corpora   map[string]*Corpus
}

// NewLab returns a Lab at the given scale caching under dir.
func NewLab(scale Scale, dir string) *Lab {
	return &Lab{Scale: scale, CacheDir: dir, scenarios: map[string]*Scenario{}, corpora: map[string]*Corpus{}}
}

// score runs a scenario's fitted validator over xs with the lab's
// worker bound, preserving input order.
func (l *Lab) score(s *Scenario, xs []*tensor.Tensor) []core.Result {
	return s.Validator.ScoreBatchWorkers(s.Net, xs, l.Workers)
}

func (l *Lab) logf(format string, args ...any) {
	if l.Log != nil {
		fmt.Fprintf(l.Log, format+"\n", args...)
	}
}

// scaleKey fingerprints the scale so cached artifacts invalidate when
// the configuration changes.
func (l *Lab) scaleKey() string {
	h := fnv.New32a()
	fmt.Fprintf(h, "%+v", l.Scale)
	return fmt.Sprintf("%08x", h.Sum32())
}

func (l *Lab) cachePath(kind, name string) string {
	return filepath.Join(l.CacheDir, fmt.Sprintf("%s-%s-%s.gob", name, kind, l.scaleKey()))
}

// Scenario returns the named scenario ("digits", "objects",
// "streetdigits"), training the model and fitting the validator on
// first use (or loading both from cache).
func (l *Lab) Scenario(name string) (*Scenario, error) {
	if s, ok := l.scenarios[name]; ok {
		return s, nil
	}
	cfg := dataset.Config{TrainN: l.Scale.TrainN, TestN: l.Scale.TestN, Seed: 1}
	ds, err := dataset.ByName(name, cfg)
	if err != nil {
		return nil, err
	}
	s := &Scenario{Name: name, Dataset: ds, Grayscale: ds.InC == 1}

	if l.CacheDir != "" {
		if pair, err := core.LoadPair(l.cachePath("model", name), l.cachePath("validator", name)); err == nil {
			s.Net = pair.Net
			s.Validator = pair.Val
			if l.Telemetry != nil {
				pair.Val.SetTelemetry(l.Telemetry)
			}
			s.TestAcc, s.TestConf = pair.Net.Accuracy(ds.TestX, ds.TestY)
			l.logf("[%s] loaded cached model (test acc %.4f)", name, s.TestAcc)
			l.scenarios[name] = s
			return s, nil
		}
	}

	if err := l.build(s); err != nil {
		return nil, err
	}
	if l.CacheDir != "" {
		if err := os.MkdirAll(l.CacheDir, 0o755); err != nil {
			return nil, fmt.Errorf("experiment: creating cache dir: %w", err)
		}
		if err := s.Net.Save(l.cachePath("model", name)); err != nil {
			return nil, err
		}
		if err := s.Validator.Save(l.cachePath("validator", name)); err != nil {
			return nil, err
		}
	}
	l.scenarios[name] = s
	return s, nil
}

// build trains the scenario's classifier (Section IV-A) and fits its
// validator (Section IV-C).
func (l *Lab) build(s *Scenario) error {
	sc := l.Scale
	rng := rand.New(rand.NewSource(97))
	arch := nn.ArchConfig{
		Width: sc.Width, FCWidth: sc.FCWidth,
		Growth: sc.Growth, BlockConvs: sc.BlockConvs, StemStride: 2,
	}

	var net *nn.Network
	var epochs int
	var err error
	switch s.Name {
	case "objects":
		// The paper's CIFAR-10 model is DenseNet (Section IV-A).
		net, err = nn.NewDenseNetLite(s.Name, s.Dataset.InC, s.Dataset.Size, s.Dataset.Classes, arch, rng)
		epochs = sc.EpochsDenseNet
	default:
		// MNIST and SVHN use seven-layer CNNs (Table II).
		net, err = nn.NewSevenLayerCNN(s.Name, s.Dataset.InC, s.Dataset.Size, s.Dataset.Classes, arch, rng)
		epochs = sc.EpochsCNN
	}
	if err != nil {
		return err
	}

	// Paper Section IV-A: Adadelta, lr 1.0, decay 0.95, batch 128, no
	// data augmentation.
	tr := nn.NewTrainer(net, opt.NewAdadelta(1.0, 0.95), rand.New(rand.NewSource(98)))
	tr.BatchSize = 128
	if s.Name == "objects" {
		calN := 200
		if calN > len(s.Dataset.TrainX) {
			calN = len(s.Dataset.TrainX)
		}
		tr.CalibrateWith = s.Dataset.TrainX[:calN]
		net.Calibrate(tr.CalibrateWith)
	}
	l.logf("[%s] training %s (%d params) for %d epochs on %d samples",
		s.Name, net.ModelName, net.ParamCount(), epochs, len(s.Dataset.TrainX))
	stats, err := tr.Train(s.Dataset.TrainX, s.Dataset.TrainY, epochs)
	if err != nil {
		return err
	}
	l.logf("[%s] final train acc %.4f", s.Name, stats[len(stats)-1].Accuracy)
	s.Net = net
	s.TestAcc, s.TestConf = net.Accuracy(s.Dataset.TestX, s.Dataset.TestY)
	l.logf("[%s] test acc %.4f, mean confidence %.4f", s.Name, s.TestAcc, s.TestConf)

	// Fit Deep Validation. DenseNet validates only the rear six layers
	// (Section IV-C); the CNNs validate all hidden layers.
	vcfg := core.Config{
		Nu:          sc.Nu,
		MaxPerClass: sc.SVMPerClass,
		MaxFeatures: sc.SVMFeatures,
		Workers:     l.Workers,
		Telemetry:   l.Telemetry,
	}
	if s.Name == "objects" {
		vcfg.Layers = core.RearLayers(net, 6)
	}
	l.logf("[%s] fitting validator", s.Name)
	val, err := core.Fit(net, s.Dataset.TrainX, s.Dataset.TrainY, vcfg)
	if err != nil {
		return err
	}
	if l.Telemetry != nil {
		val.SetTelemetry(l.Telemetry)
	}
	s.Validator = val
	return nil
}

// ScenarioNames lists the three evaluation scenarios in paper order:
// the datasets dataset.ByName builds.
func ScenarioNames() []string { return dataset.Names() }

// seedRNG derives the seed-selection stream for a scenario.
func seedRNG(name string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprint(h, "seeds:", name)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}
