package deepvalidation

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
)

// bandImages builds a tiny separable 3-class problem: class k has a
// bright band at height 2k..2k+2 on an 8×8 canvas.
func bandImages(rng *rand.Rand, n int) ([]Image, []int) {
	var xs []Image
	var ys []int
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
		xs = append(xs, Image{Channels: 1, Height: 8, Width: 8, Pixels: px})
		ys = append(ys, k)
	}
	return xs, ys
}

var detFixture struct {
	once sync.Once
	det  *Detector
	err  error
}

func builtDetector(t *testing.T) *Detector {
	t.Helper()
	detFixture.once.Do(func() {
		rng := rand.New(rand.NewSource(5))
		xs, ys := bandImages(rng, 150)
		detFixture.det, detFixture.err = Build(xs, ys, BuildConfig{
			Classes: 3, Epochs: 15, Width: 4, FCWidth: 16,
			SVMPerClass: 50, SVMFeatures: 64, Seed: 5,
		})
	})
	if detFixture.err != nil {
		t.Fatal(detFixture.err)
	}
	return detFixture.det
}

func TestBuildCheckLifecycle(t *testing.T) {
	det := builtDetector(t)
	if det.Classes() != 3 {
		t.Fatalf("Classes = %d", det.Classes())
	}

	rng := rand.New(rand.NewSource(6))
	clean, labels := bandImages(rng, 60)
	eps, err := det.Calibrate(clean, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if det.Epsilon() != eps {
		t.Fatal("Calibrate did not store ε")
	}

	// Clean inputs: accurate and mostly valid.
	correct, valid := 0, 0
	for i, im := range clean {
		v, err := det.Check(im)
		if err != nil {
			t.Fatal(err)
		}
		if v.Label == labels[i] {
			correct++
		}
		if v.Valid {
			valid++
		}
	}
	if float64(correct)/float64(len(clean)) < 0.9 {
		t.Fatalf("clean accuracy %d/%d too low", correct, len(clean))
	}
	if float64(valid)/float64(len(clean)) < 0.8 {
		t.Fatalf("clean validity %d/%d too low", valid, len(clean))
	}

	// Out-of-distribution noise: mostly flagged.
	flagged := 0
	for i := 0; i < 40; i++ {
		px := make([]float64, 64)
		for j := range px {
			px[j] = rng.Float64()
		}
		v, err := det.Check(Image{Channels: 1, Height: 8, Width: 8, Pixels: px})
		if err != nil {
			t.Fatal(err)
		}
		if !v.Valid {
			flagged++
		}
	}
	if float64(flagged)/40 < 0.6 {
		t.Fatalf("noise flagged %d/40, want most", flagged)
	}

	checked, totalFlagged, rate := det.Stats()
	if checked != 100 || totalFlagged < flagged {
		t.Fatalf("Stats = (%d, %d, %v)", checked, totalFlagged, rate)
	}
}

func TestBuildValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs, ys := bandImages(rng, 20)
	if _, err := Build(nil, nil, BuildConfig{Classes: 3}); err == nil {
		t.Error("empty training set accepted")
	}
	if _, err := Build(xs, ys[:5], BuildConfig{Classes: 3}); err == nil {
		t.Error("mismatched labels accepted")
	}
	if _, err := Build(xs, ys, BuildConfig{Classes: 1}); err == nil {
		t.Error("single class accepted")
	}
	mixed := append([]Image(nil), xs...)
	mixed[3] = Image{Channels: 3, Height: 8, Width: 8, Pixels: make([]float64, 192)}
	if _, err := Build(mixed, ys, BuildConfig{Classes: 3}); err == nil {
		t.Error("mixed geometries accepted")
	}
}

func TestImageValidate(t *testing.T) {
	bad := []Image{
		{Channels: 0, Height: 8, Width: 8, Pixels: nil},
		{Channels: 1, Height: 8, Width: 8, Pixels: make([]float64, 10)},
	}
	for i, im := range bad {
		if err := im.Validate(); err == nil {
			t.Errorf("bad image %d accepted", i)
		}
	}
	good := Image{Channels: 1, Height: 2, Width: 3, Pixels: make([]float64, 6)}
	if err := good.Validate(); err != nil {
		t.Errorf("good image rejected: %v", err)
	}
}

func TestCheckRejectsWrongGeometry(t *testing.T) {
	det := builtDetector(t)
	_, err := det.Check(Image{Channels: 3, Height: 8, Width: 8, Pixels: make([]float64, 192)})
	if err == nil {
		t.Fatal("wrong-geometry image accepted")
	}
}

func TestCalibrateValidation(t *testing.T) {
	det := builtDetector(t)
	if _, err := det.Calibrate(nil, 0.1); err == nil {
		t.Error("empty calibration set accepted")
	}
	rng := rand.New(rand.NewSource(8))
	clean, _ := bandImages(rng, 5)
	if _, err := det.Calibrate(clean, 1.5); err == nil {
		t.Error("fpr > 1 accepted")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	det := builtDetector(t)
	dir := t.TempDir()
	mp, vp := filepath.Join(dir, "m.gob"), filepath.Join(dir, "v.gob")
	if err := det.Save(mp, vp); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(mp, vp)
	if err != nil {
		t.Fatal(err)
	}
	loaded.SetEpsilon(det.Epsilon())

	rng := rand.New(rand.NewSource(9))
	imgs, _ := bandImages(rng, 10)
	for _, im := range imgs {
		a, err := det.Check(im)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.Check(im)
		if err != nil {
			t.Fatal(err)
		}
		if a.Label != b.Label || a.Discrepancy != b.Discrepancy {
			t.Fatalf("loaded detector disagrees: %+v vs %+v", a, b)
		}
	}
}

func TestLoadMissing(t *testing.T) {
	dir := t.TempDir()
	if _, err := Load(filepath.Join(dir, "a"), filepath.Join(dir, "b")); err == nil {
		t.Fatal("missing files accepted")
	}
}

func TestDetectorCheckBatch(t *testing.T) {
	// A private detector: CheckBatch mutates Stats, and the shared
	// fixture's lifecycle test asserts exact counts.
	rng := rand.New(rand.NewSource(14))
	xs, ys := bandImages(rng, 120)
	det, err := Build(xs, ys, BuildConfig{
		Classes: 3, Epochs: 10, Width: 4, FCWidth: 16,
		SVMPerClass: 40, SVMFeatures: 64, Seed: 5, Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	clean, _ := bandImages(rng, 30)
	if _, err := det.Calibrate(clean, 0.1); err != nil {
		t.Fatal(err)
	}

	probe, _ := bandImages(rng, 20)
	batch, err := det.CheckBatch(probe)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(probe) {
		t.Fatalf("%d verdicts for %d images", len(batch), len(probe))
	}
	// Verdicts are stat-independent, so sequential Check on the same
	// detector must reproduce the batch exactly, in input order.
	for i, im := range probe {
		want, err := det.Check(im)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i] != want {
			t.Fatalf("image %d: CheckBatch %+v != Check %+v", i, batch[i], want)
		}
	}

	if empty, err := det.CheckBatch(nil); err != nil || len(empty) != 0 {
		t.Fatalf("empty batch: %v, %d verdicts", err, len(empty))
	}
	bad := append([]Image(nil), probe...)
	bad[3] = Image{Channels: 3, Height: 8, Width: 8, Pixels: make([]float64, 192)}
	if _, err := det.CheckBatch(bad); err == nil {
		t.Fatal("wrong-geometry image accepted in batch")
	}
	det.SetWorkers(1)
	seq, err := det.CheckBatch(probe)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i] != batch[i] {
			t.Fatalf("image %d: workers=1 verdict differs from parallel", i)
		}
	}
}

// TestCheckDoesNotMutateInput pins the Image pixel contract: scoring
// wraps the caller's Pixels without copying them, so Check,
// CheckDetailed, CheckBatch and Calibrate must leave every pixel
// bit-identical — including -0 and subnormal values that any write-back
// through arithmetic would normalize — and concurrent CheckBatch calls
// over one shared []Image must agree (and, under -race, not race).
func TestCheckDoesNotMutateInput(t *testing.T) {
	// A private copy of the fixture: Calibrate moves ε and every check
	// moves Stats, which the lifecycle test asserts exactly.
	dir := t.TempDir()
	mp, vp := filepath.Join(dir, "m.gob"), filepath.Join(dir, "v.gob")
	if err := builtDetector(t).Save(mp, vp); err != nil {
		t.Fatal(err)
	}
	det, err := Load(mp, vp)
	if err != nil {
		t.Fatal(err)
	}
	det.SetWorkers(4)

	imgs, _ := bandImages(rand.New(rand.NewSource(21)), 24)
	imgs[0].Pixels[0] = math.Copysign(0, -1)
	imgs[1].Pixels[5] = math.SmallestNonzeroFloat64
	imgs[2].Pixels[63] = 1 - 1e-17
	want := make([][]uint64, len(imgs))
	for i, im := range imgs {
		for _, p := range im.Pixels {
			want[i] = append(want[i], math.Float64bits(p))
		}
	}
	untouched := func(stage string) {
		t.Helper()
		for i, im := range imgs {
			for j, p := range im.Pixels {
				if math.Float64bits(p) != want[i][j] {
					t.Fatalf("%s wrote pixel %d of image %d: %v", stage, j, i, p)
				}
			}
		}
	}

	if _, err := det.Calibrate(imgs, 0.1); err != nil {
		t.Fatal(err)
	}
	untouched("Calibrate")
	for _, im := range imgs {
		if _, err := det.Check(im); err != nil {
			t.Fatal(err)
		}
		if _, err := det.CheckDetailed(im, &Detail{Timed: true}); err != nil {
			t.Fatal(err)
		}
	}
	untouched("Check/CheckDetailed")

	ref, err := det.CheckBatch(imgs)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := det.CheckBatch(imgs)
			if err == nil {
				for i := range got {
					if got[i] != ref[i] {
						err = fmt.Errorf("concurrent CheckBatch image %d: %+v != %+v", i, got[i], ref[i])
						break
					}
				}
			}
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	untouched("concurrent CheckBatch")
}
