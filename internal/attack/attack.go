// Package attack implements the white-box adversarial attacks of the
// paper's Section IV-D5 evaluation (Table VIII): FGSM (Goodfellow et
// al.), BIM (Kurakin et al.), JSMA (Papernot et al.), and the
// Carlini–Wagner L2, L∞ and L0 attacks. All operate in the [0,1] pixel
// box on a single sample and rely on the nn package's exact input and
// logit gradients.
package attack

import (
	"fmt"
	"math"
	"sort"

	"deepvalidation/internal/nn"
	"deepvalidation/internal/tensor"
)

// Result reports one attack attempt.
type Result struct {
	// Adversarial is the crafted image (always returned, even on
	// failure: a failed adversarial example — FAE — is still evaluated
	// by the detectors, Section IV-D5).
	Adversarial *tensor.Tensor
	// Pred and Conf are the model's output on Adversarial.
	Pred int
	Conf float64
	// Success is true when Pred differs from the original label
	// ("successful adversarial samples (SAEs) still mean the ones that
	// cause wrong predictions regardless of their target labels").
	Success bool
}

func finish(net *nn.Network, adv *tensor.Tensor, origLabel int) Result {
	pred, conf := net.Predict(adv)
	return Result{Adversarial: adv, Pred: pred, Conf: conf, Success: pred != origLabel}
}

// lossGrad returns ∇ₓ CE(f(x), label).
func lossGrad(net *nn.Network, x *tensor.Tensor, label int) *tensor.Tensor {
	return net.InputGradient(x, label)
}

// FGSM runs the untargeted fast gradient sign method with step eps.
func FGSM(net *nn.Network, x *tensor.Tensor, label int, eps float64) Result {
	g := lossGrad(net, x, label)
	adv := x.Clone()
	for i, v := range g.Data {
		adv.Data[i] += float64(eps * sign(v))
	}
	adv.ClampInPlace(0, 1)
	return finish(net, adv, label)
}

// BIM runs the untargeted basic iterative method: iters steps of size
// alpha, each projected back into the ε-ball around x and the pixel
// box.
func BIM(net *nn.Network, x *tensor.Tensor, label int, eps, alpha float64, iters int) Result {
	adv := x.Clone()
	for it := 0; it < iters; it++ {
		g := lossGrad(net, adv, label)
		for i, v := range g.Data {
			adv.Data[i] += float64(alpha * sign(v))
			// Project into the ε-ball and the box.
			lo, hi := x.Data[i]-eps, x.Data[i]+eps
			if adv.Data[i] < lo {
				adv.Data[i] = lo
			} else if adv.Data[i] > hi {
				adv.Data[i] = hi
			}
			if adv.Data[i] < 0 {
				adv.Data[i] = 0
			} else if adv.Data[i] > 1 {
				adv.Data[i] = 1
			}
		}
	}
	return finish(net, adv, label)
}

// Target selection helpers for Table VIII's "Next" and "LL" rows.

// NextClass returns (label+1) mod classes, the paper's "Next" target.
func NextClass(label, classes int) int { return (label + 1) % classes }

// LeastLikely returns the class the model currently finds least likely
// for x, the paper's "LL" target.
func LeastLikely(net *nn.Network, x *tensor.Tensor) int {
	p := net.Forward(x)
	best := 0
	for i, v := range p.Data {
		if v < p.Data[best] {
			best = i
		}
	}
	return best
}

// JSMA runs a targeted Jacobian-based saliency map attack: per
// iteration it computes the logit Jacobian rows for the target and the
// complement, selects the most salient still-unmodified pixel, and
// moves it by theta. maxFrac bounds the fraction of modified pixels.
// This is the single-pixel variant of Papernot et al.'s pairwise
// search; the saliency rule is identical.
func JSMA(net *nn.Network, x *tensor.Tensor, origLabel, target int, theta, maxFrac float64) Result {
	adv := x.Clone()
	n := adv.Len()
	maxPixels := int(maxFrac * float64(n))
	used := make([]bool, n)
	for it := 0; it < maxPixels; it++ {
		if pred, _ := net.Predict(adv); pred == target {
			break
		}
		// Two backward passes give dZ_t/dx and d(Σ_j Z_j)/dx.
		ctx := nn.NewContext(false, nil)
		logits := net.ForwardToLogits(adv, ctx)
		gt := net.BackwardFromLogits(nn.OneHot(logits.Len(), target), ctx)

		ctx2 := nn.NewContext(false, nil)
		net.ForwardToLogits(adv, ctx2)
		ones := tensor.New(logits.Len()).Fill(1)
		gsum := net.BackwardFromLogits(ones, ctx2)

		// Saliency: prefer pixels that push the target logit up while
		// pulling the others down, with room to move.
		bestIdx := -1
		bestScore := 0.0
		bestDir := 0.0
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			a := gt.Data[i]
			b := gsum.Data[i] - a // Σ_{j≠t} dZ_j/dx_i
			var s, dir float64
			switch {
			case a > 0 && b < 0 && adv.Data[i] < 1:
				s, dir = a*-b, 1
			case a < 0 && b > 0 && adv.Data[i] > 0:
				s, dir = -a*b, -1
			default:
				continue
			}
			if s > bestScore {
				bestScore, bestIdx, bestDir = s, i, dir
			}
		}
		if bestIdx < 0 {
			break
		}
		adv.Data[bestIdx] += float64(bestDir * theta)
		if adv.Data[bestIdx] > 1 {
			adv.Data[bestIdx] = 1
		} else if adv.Data[bestIdx] < 0 {
			adv.Data[bestIdx] = 0
		}
		used[bestIdx] = true
	}
	return finish(net, adv, origLabel)
}

// CWConfig parameterizes the Carlini–Wagner attacks.
type CWConfig struct {
	// Confidence is the κ margin of the CW objective (default 0).
	Confidence float64
	// BinarySearchSteps and InitialC drive the trade-off search
	// (defaults 3 and 1e-2).
	BinarySearchSteps int
	InitialC          float64
	// Iterations is the inner Adam loop length (default 80).
	Iterations int
	// LR is the Adam learning rate (default 0.05).
	LR float64
}

// DefaultCWConfig returns CPU-scale defaults; the attack loop matches
// Carlini & Wagner's, only the iteration budget is reduced.
func DefaultCWConfig() CWConfig {
	return CWConfig{BinarySearchSteps: 3, InitialC: 1e-2, Iterations: 80, LR: 0.05}
}

func (c CWConfig) withDefaults() CWConfig {
	if c.BinarySearchSteps <= 0 {
		c.BinarySearchSteps = 3
	}
	if c.InitialC <= 0 {
		c.InitialC = 1e-2
	}
	if c.Iterations <= 0 {
		c.Iterations = 80
	}
	if c.LR <= 0 {
		c.LR = 0.05
	}
	return c
}

// cwObjectiveGrad evaluates the CW margin loss
// f(x') = max(max_{i≠t} Z_i − Z_t, −κ) and its gradient with respect
// to the input.
func cwObjectiveGrad(net *nn.Network, x *tensor.Tensor, target int, kappa float64) (float64, *tensor.Tensor) {
	ctx := nn.NewContext(false, nil)
	z := net.ForwardToLogits(x, ctx)
	// Strongest competing logit.
	other := -1
	for i := range z.Data {
		if i == target {
			continue
		}
		if other < 0 || z.Data[i] > z.Data[other] {
			other = i
		}
	}
	margin := z.Data[other] - z.Data[target]
	if margin < -kappa {
		// Hinge inactive: the attack already clears the κ margin, so
		// the objective contributes no gradient. The raw margin is
		// still returned so callers can detect success (margin < 0).
		return margin, tensor.New(x.Shape...)
	}
	gz := tensor.New(z.Len())
	gz.Data[other] = 1
	gz.Data[target] = -1
	return margin, net.BackwardFromLogits(gz, ctx)
}

// CWL2 runs the targeted Carlini–Wagner L2 attack: minimize
// ‖x'−x‖² + c·f(x') over w with x' = (tanh(w)+1)/2, binary-searching c.
func CWL2(net *nn.Network, x *tensor.Tensor, origLabel, target int, cfg CWConfig) Result {
	cfg = cfg.withDefaults()
	n := x.Len()

	// Map x into tanh space, nudging off the boundary.
	w0 := make([]float64, n)
	for i, v := range x.Data {
		v = math.Min(math.Max(v, 1e-6), 1-1e-6)
		w0[i] = math.Atanh(2*v - 1)
	}

	c := cfg.InitialC
	lowerC, upperC := 0.0, math.Inf(1)
	var best *tensor.Tensor
	bestDist := math.Inf(1)

	for step := 0; step < cfg.BinarySearchSteps; step++ {
		w := append([]float64(nil), w0...)
		adam := newAdamState(n, cfg.LR)
		succeeded := false
		for it := 0; it < cfg.Iterations; it++ {
			adv, dxdw := tanhImage(w, x.Shape)
			margin, gAttack := cwObjectiveGrad(net, adv, target, cfg.Confidence)

			if margin < 0 {
				succeeded = true
				if d := adv.Sub(x).L2Norm(); d < bestDist {
					bestDist = d
					best = adv.Clone()
				}
			}
			// ∇_w [‖x'−x‖² + c·f(x')] = (2(x'−x) + c∇f) ⊙ dx'/dw.
			for i := 0; i < n; i++ {
				g := (float64(2*(adv.Data[i]-x.Data[i])) + float64(c*gAttack.Data[i])) * dxdw[i]
				w[i] += adam.step(i, g)
			}
		}
		if succeeded {
			upperC = c
			c = (lowerC + upperC) / 2
		} else {
			lowerC = c
			if math.IsInf(upperC, 1) {
				c *= 10
			} else {
				c = (lowerC + upperC) / 2
			}
		}
	}
	if best == nil {
		adv, _ := tanhImage(w0, x.Shape)
		return finish(net, adv, origLabel)
	}
	return finish(net, best, origLabel)
}

// CWLInf runs the targeted CW L∞ attack: repeated penalized descent
// minimizing c·f(x') + Σᵢ max(|x'ᵢ−xᵢ|−τ, 0), shrinking τ while the
// attack keeps succeeding (Carlini & Wagner's iterative refinement).
func CWLInf(net *nn.Network, x *tensor.Tensor, origLabel, target int, cfg CWConfig) Result {
	cfg = cfg.withDefaults()
	n := x.Len()
	tau := 1.0
	c := cfg.InitialC * 10
	var best *tensor.Tensor

	adv := x.Clone()
	for round := 0; round < cfg.BinarySearchSteps+3; round++ {
		adam := newAdamState(n, cfg.LR)
		succeeded := false
		cur := adv.Clone()
		for it := 0; it < cfg.Iterations; it++ {
			margin, gAttack := cwObjectiveGrad(net, cur, target, cfg.Confidence)
			if margin < 0 {
				succeeded = true
			}
			for i := 0; i < n; i++ {
				g := float64(c * gAttack.Data[i])
				d := cur.Data[i] - x.Data[i]
				if d > tau {
					g += 1
				} else if d < -tau {
					g -= 1
				}
				cur.Data[i] += adam.step(i, g)
				if cur.Data[i] < 0 {
					cur.Data[i] = 0
				} else if cur.Data[i] > 1 {
					cur.Data[i] = 1
				}
			}
		}
		if !succeeded {
			c *= 5 // attack failed at this penalty; try harder
			continue
		}
		best = cur.Clone()
		adv = cur
		// Shrink the allowed perturbation toward the achieved L∞.
		actual := cur.Sub(x).LInfNorm()
		if actual < tau {
			tau = actual
		}
		tau *= 0.8
		if tau < 1.0/255 {
			break
		}
	}
	if best == nil {
		return finish(net, adv, origLabel)
	}
	return finish(net, best, origLabel)
}

// CWL0 runs the targeted CW L0 attack: repeatedly solve an L2 instance
// on a shrinking pixel support, freezing the pixels the L2 solution
// moved least (Carlini & Wagner's iterative freezing scheme).
func CWL0(net *nn.Network, x *tensor.Tensor, origLabel, target int, cfg CWConfig) Result {
	cfg = cfg.withDefaults()
	n := x.Len()
	allowed := make([]bool, n)
	for i := range allowed {
		allowed[i] = true
	}
	var best *tensor.Tensor

	for round := 0; round < 6; round++ {
		adv, ok := cwL2Masked(net, x, target, cfg, allowed)
		if !ok {
			break
		}
		best = adv
		// Freeze the ~20% least-perturbed still-allowed pixels.
		type pix struct {
			idx int
			mag float64
		}
		var moved []pix
		for i := 0; i < n; i++ {
			if allowed[i] {
				moved = append(moved, pix{i, math.Abs(adv.Data[i] - x.Data[i])})
			}
		}
		if len(moved) <= 1 {
			break
		}
		// Selection by threshold of the 20th percentile magnitude.
		mags := make([]float64, len(moved))
		for i, p := range moved {
			mags[i] = p.mag
		}
		kth := percentileMag(mags, 0.2)
		frozen := 0
		for _, p := range moved {
			if p.mag <= kth {
				allowed[p.idx] = false
				frozen++
			}
		}
		if frozen == 0 {
			break
		}
	}
	if best == nil {
		return finish(net, x.Clone(), origLabel)
	}
	return finish(net, best, origLabel)
}

// percentileMag returns the q-quantile of the given magnitudes.
func percentileMag(mags []float64, q float64) float64 {
	sort.Float64s(mags)
	k := int(q * float64(len(mags)))
	if k >= len(mags) {
		k = len(mags) - 1
	}
	return mags[k]
}

// cwL2Masked is CWL2 restricted to the allowed pixel support; it
// reports whether the target was reached.
func cwL2Masked(net *nn.Network, x *tensor.Tensor, target int, cfg CWConfig, allowed []bool) (*tensor.Tensor, bool) {
	n := x.Len()
	w := make([]float64, n)
	for i, v := range x.Data {
		v = math.Min(math.Max(v, 1e-6), 1-1e-6)
		w[i] = math.Atanh(2*v - 1)
	}
	c := cfg.InitialC * 10
	var best *tensor.Tensor
	bestDist := math.Inf(1)
	for step := 0; step < 2; step++ {
		adam := newAdamState(n, cfg.LR)
		cur := append([]float64(nil), w...)
		for it := 0; it < cfg.Iterations; it++ {
			adv, dxdw := tanhImage(cur, x.Shape)
			// Frozen pixels stay at their original values.
			for i := range allowed {
				if !allowed[i] {
					adv.Data[i] = x.Data[i]
				}
			}
			margin, gAttack := cwObjectiveGrad(net, adv, target, cfg.Confidence)
			if margin < 0 {
				if d := adv.Sub(x).L2Norm(); d < bestDist {
					bestDist = d
					best = adv.Clone()
				}
			}
			for i := 0; i < n; i++ {
				if !allowed[i] {
					continue
				}
				g := (float64(2*(adv.Data[i]-x.Data[i])) + float64(c*gAttack.Data[i])) * dxdw[i]
				cur[i] += adam.step(i, g)
			}
		}
		if best != nil {
			break
		}
		c *= 10
	}
	return best, best != nil
}

// tanhImage maps tanh-space variables to a [0,1] image and returns the
// elementwise derivative dx'/dw.
func tanhImage(w []float64, shape []int) (*tensor.Tensor, []float64) {
	img := tensor.New(shape...)
	dx := make([]float64, len(w))
	for i, v := range w {
		th := math.Tanh(v)
		img.Data[i] = (th + 1) / 2
		dx[i] = (1 - float64(th*th)) / 2
	}
	return img, dx
}

// adamState is a minimal per-attack Adam optimizer over flat vectors.
type adamState struct {
	lr      float64
	m, v    []float64
	t       int
	stepped bool
}

func newAdamState(n int, lr float64) *adamState {
	return &adamState{lr: lr, m: make([]float64, n), v: make([]float64, n)}
}

// step returns the (negative-gradient-direction) increment for index i.
// Callers must sweep i over 0..n−1 each iteration; the time counter
// advances on i == 0.
func (a *adamState) step(i int, g float64) float64 {
	const b1, b2, eps = 0.9, 0.999, 1e-8
	if i == 0 {
		a.t++
	}
	a.m[i] = float64(b1*a.m[i]) + float64((1-b1)*g)
	a.v[i] = float64(b2*a.v[i]) + float64((1-b2)*g*g)
	mh := a.m[i] / (1 - math.Pow(b1, float64(a.t)))
	vh := a.v[i] / (1 - math.Pow(b2, float64(a.t)))
	return -a.lr * mh / (math.Sqrt(vh) + eps)
}

func sign(v float64) float64 {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	default:
		return 0
	}
}

// Name helpers for experiment tables.

// Kind identifies an attack family for reporting.
type Kind string

// The attack kinds of Table VIII.
const (
	KindFGSM  Kind = "FGSM"
	KindBIM   Kind = "BIM"
	KindCWInf Kind = "CW∞"
	KindCW2   Kind = "CW2"
	KindCW0   Kind = "CW0"
	KindJSMA  Kind = "JSMA"
)

// String implements fmt.Stringer.
func (k Kind) String() string { return string(k) }

var _ fmt.Stringer = KindFGSM
