// Package corner synthesizes real-world corner cases by metamorphic
// testing (paper Section III-A): it applies naturally occurring image
// transformations to correctly classified seed images with growing
// distortion, stopping when the model's success rate (1 − accuracy on
// the transformed set) reaches the target, and drops families that
// never become error-inducing (Section IV-B).
package corner

import (
	"fmt"
	"math"
	"math/rand"

	"deepvalidation/internal/imgtrans"
	"deepvalidation/internal/nn"
	"deepvalidation/internal/tensor"
)

// Family is one parameterized transformation family with its search
// grid ordered by increasing distortion strength (Table IV). The grids
// here follow the paper's ranges with coarser steps, which keeps the
// trial-and-error search CPU-tractable without changing the procedure.
type Family struct {
	Name string
	Grid []imgtrans.Transform
}

// Families returns the transformation families applicable to a
// dataset. Complement only applies to greyscale images: "the
// complements of color images look peculiar and are unlikely to appear
// in reality" (Section III-A1).
func Families(grayscale bool) []Family {
	var fams []Family

	var brightness Family
	brightness.Name = "brightness"
	for b := 0.05; b <= 0.95; b += 0.05 {
		brightness.Grid = append(brightness.Grid, imgtrans.Brightness{Beta: b})
	}
	fams = append(fams, brightness)

	var contrast Family
	contrast.Name = "contrast"
	// Distortion grows away from α = 1 in both directions; interleave
	// amplification and attenuation by growing |log α|.
	for i := 1; i <= 16; i++ {
		up := 1 + float64(float64(i)*0.25)
		contrast.Grid = append(contrast.Grid, imgtrans.Contrast{Alpha: up})
	}
	fams = append(fams, contrast)

	var rotation Family
	rotation.Name = "rotation"
	for th := 2.0; th <= 70; th += 2 {
		rotation.Grid = append(rotation.Grid, imgtrans.Rotation(th))
	}
	fams = append(fams, rotation)

	var shear Family
	shear.Name = "shear"
	for s := 0.05; s <= 0.5+1e-9; s += 0.05 {
		shear.Grid = append(shear.Grid, imgtrans.Shear(s, 0.75*s))
	}
	fams = append(fams, shear)

	var scale Family
	scale.Name = "scale"
	for s := 0.95; s >= 0.4-1e-9; s -= 0.05 {
		scale.Grid = append(scale.Grid, imgtrans.Scale(s, s))
	}
	fams = append(fams, scale)

	var translation Family
	translation.Name = "translation"
	for t := 1.0; t <= 18; t++ {
		translation.Grid = append(translation.Grid, imgtrans.Translation(t, math.Ceil(0.75*t)))
	}
	fams = append(fams, translation)

	if grayscale {
		fams = append(fams, Family{
			Name: "complement",
			Grid: []imgtrans.Transform{imgtrans.Complement{}},
		})
	}
	return fams
}

// Search thresholds from Section IV-B: stop a family's grid walk once
// the success rate reaches TargetSuccess; discard families that never
// exceed MinSuccess.
const (
	TargetSuccess = 0.60
	MinSuccess    = 0.30
)

// Generated is the outcome of applying one transformation to every
// seed.
type Generated struct {
	Family    string
	Transform imgtrans.Transform
	// Images[i] is the transformed seeds[i].
	Images []*tensor.Tensor
	// SeedLabels[i] is the original (preserved) label.
	SeedLabels []int
	// Preds[i] and Confs[i] are the model's prediction on Images[i].
	Preds []int
	Confs []float64
	// SuccessRate is 1 − accuracy on Images (the fraction of SCCs).
	SuccessRate float64
	// MeanWrongConfidence averages the model's top-1 confidence over
	// the successful corner cases, Table V's last column.
	MeanWrongConfidence float64
}

// Generate applies tr to every seed and records the model's behaviour.
func Generate(net *nn.Network, seeds []*tensor.Tensor, labels []int, family string, tr imgtrans.Transform) Generated {
	g := Generated{
		Family:     family,
		Transform:  tr,
		SeedLabels: labels,
	}
	wrong := 0
	wrongConf := 0.0
	for i, s := range seeds {
		img := tr.Apply(s)
		pred, conf := net.Predict(img)
		g.Images = append(g.Images, img)
		g.Preds = append(g.Preds, pred)
		g.Confs = append(g.Confs, conf)
		if pred != labels[i] {
			wrong++
			wrongConf += conf
		}
	}
	if len(seeds) > 0 {
		g.SuccessRate = float64(wrong) / float64(len(seeds))
	}
	if wrong > 0 {
		g.MeanWrongConfidence = wrongConf / float64(wrong)
	}
	return g
}

// SCC returns the successful corner cases (misclassified); the rest
// are the failed ones (FCC, still classified correctly), the split of
// Section IV-D1.
func (g Generated) SCC() (imgs []*tensor.Tensor, seedLabels []int) {
	for i, img := range g.Images {
		if g.Preds[i] != g.SeedLabels[i] {
			imgs = append(imgs, img)
			seedLabels = append(seedLabels, g.SeedLabels[i])
		}
	}
	return imgs, seedLabels
}

// SearchResult reports one family's grid search.
type SearchResult struct {
	Family string
	// Kept is false when the family never reached MinSuccess on this
	// model/dataset (a "-" row of Table V).
	Kept bool
	// Best is the selected configuration's outcome (valid when Kept).
	Best Generated
	// Steps is how many grid points were evaluated.
	Steps int
}

// Search walks each family's grid in increasing distortion until the
// success rate reaches TargetSuccess, mirroring "the search stops when
// the average accuracy of the model on the transformed image set starts
// to drop by a notable margin" realized as the ≈60% success-rate
// criterion of Section IV-B.
func Search(net *nn.Network, seeds []*tensor.Tensor, labels []int, fams []Family) []SearchResult {
	out := make([]SearchResult, 0, len(fams))
	for _, fam := range fams {
		res := SearchResult{Family: fam.Name}
		var best Generated
		for _, tr := range fam.Grid {
			res.Steps++
			g := Generate(net, seeds, labels, fam.Name, tr)
			if g.SuccessRate > best.SuccessRate || best.Images == nil {
				best = g
			}
			if g.SuccessRate >= TargetSuccess {
				break
			}
		}
		if best.SuccessRate >= MinSuccess {
			res.Kept = true
			res.Best = best
		}
		out = append(out, res)
	}
	return out
}

// CombineSearch evaluates pairwise combinations of the kept families'
// final parameters and picks, among pairs clearing MinSuccess, the one
// with the smallest deformation — quantified as the mean per-pixel L2
// distance from the seeds, realizing "we select one transformation
// combination ... that results in the smallest deformation"
// (Section IV-B).
func CombineSearch(net *nn.Network, seeds []*tensor.Tensor, labels []int, kept []SearchResult) (Generated, bool) {
	var best Generated
	bestDeform := math.Inf(1)
	found := false
	for i := 0; i < len(kept); i++ {
		for j := 0; j < len(kept); j++ {
			if i == j || !kept[i].Kept || !kept[j].Kept {
				continue
			}
			tr := imgtrans.Chain{kept[i].Best.Transform, kept[j].Best.Transform}
			g := Generate(net, seeds, labels, "combined", tr)
			if g.SuccessRate < MinSuccess {
				continue
			}
			d := meanDeformation(seeds, g.Images)
			if d < bestDeform {
				bestDeform = d
				best = g
				found = true
			}
		}
	}
	return best, found
}

func meanDeformation(seeds, transformed []*tensor.Tensor) float64 {
	if len(seeds) == 0 {
		return 0
	}
	s := 0.0
	for i := range seeds {
		diff := seeds[i].Sub(transformed[i])
		s += diff.L2Norm() / math.Sqrt(float64(diff.Len()))
	}
	return s / float64(len(seeds))
}

// SelectSeeds samples n test images that the model classifies
// correctly, the seed-set construction of Section IV-B ("We make sure
// that all get correctly classified before any modification").
func SelectSeeds(net *nn.Network, testX []*tensor.Tensor, testY []int, n int, rng *rand.Rand) ([]*tensor.Tensor, []int, error) {
	if len(testX) != len(testY) {
		return nil, nil, fmt.Errorf("corner: %d images but %d labels", len(testX), len(testY))
	}
	perm := rng.Perm(len(testX))
	var xs []*tensor.Tensor
	var ys []int
	for _, i := range perm {
		if len(xs) == n {
			break
		}
		if pred, _ := net.Predict(testX[i]); pred == testY[i] {
			xs = append(xs, testX[i])
			ys = append(ys, testY[i])
		}
	}
	if len(xs) < n {
		return nil, nil, fmt.Errorf("corner: only %d of %d requested correctly classified seeds available", len(xs), n)
	}
	return xs, ys, nil
}
