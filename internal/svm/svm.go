// Package svm implements the ν-one-class support vector machine of
// Schölkopf et al. (2001), "Estimating the support of a high-dimensional
// distribution" — the estimator Deep Validation fits per (layer, class)
// to model reference distributions (paper Section III-B2).
//
// The dual problem solved is the libsvm formulation:
//
//	min ½ αᵀQα   s.t.  0 ≤ αᵢ ≤ 1,  Σαᵢ = ν·l,   Q_ij = K(xᵢ, xⱼ)
//
// via sequential minimal optimization with maximal-violating-pair
// working-set selection. The decision function
//
//	f(x) = Σ αᵢ K(xᵢ, x) − ρ
//
// is non-negative on the region holding most of the training mass and
// negative outside — exactly the convention the paper's discrepancy
// DISCREPANCY(y', f_i(x)) := −t(f_i(x)) expects (Eq. 2).
package svm

import (
	"errors"
	"fmt"
	"math"
)

// KernelKind names a model's kernel. Persisted models record it; RBF,
// the paper's kernel, is the only one.
type KernelKind string

// KernelRBF is the Gaussian kernel K(a, b) = exp(−γ‖a − b‖²).
const KernelRBF KernelKind = "rbf"

// Config parameterizes training.
type Config struct {
	// Nu bounds the fraction of training outliers from above and the
	// fraction of support vectors from below; must be in (0, 1].
	Nu float64
	// Gamma is the RBF bandwidth. If 0, the scikit-learn "scale"
	// heuristic 1/(d·Var(X)) is used.
	Gamma float64
	// Tol is the SMO stopping tolerance (default 1e-3).
	Tol float64
	// MaxIter caps SMO iterations (default 100·l, at least 10000).
	MaxIter int
}

// DefaultConfig mirrors scikit-learn's OneClassSVM defaults, which the
// paper's implementation used.
func DefaultConfig() Config {
	return Config{Nu: 0.1}
}

// OneClass is a trained one-class SVM. Fields are exported for gob
// serialization of fitted validators; treat them as read-only.
//
// Train's models hold their support vectors once: each Support row is
// a full-capacity view of the row-major matrix DecisionBatchInto reads.
// Models from elsewhere (gob decoding, literals) get the same layout
// from Flatten, which must run before the model is shared.
//
// The decision reads Support, Alpha, Gamma and Rho only. Older
// artifacts also carry each support vector's squared norm in a field
// named SVNorms, which gob skips on decode.
type OneClass struct {
	Kind     KernelKind
	Gamma    float64
	Nu       float64
	Support  [][]float64 // support vectors
	Alpha    []float64   // dual coefficients of the support vectors
	Rho      float64
	Dim      int
	TrainedN int
	Iters    int

	// Runtime state, skipped by gob.
	flat []float64 // the len(Support)×Dim matrix Support rows view; nil until Flatten
}

// Workspace is the solver's reusable scratch: the flat l×l kernel
// matrix, α and the gradient. Its buffers grow only when a problem's l
// exceeds every earlier one, so a caller that trains many SVMs on one
// Workspace (each core.Fit worker does) allocates them once, at its
// largest l. The zero value is ready to use. A Workspace is not safe
// for concurrent use.
type Workspace struct {
	q, alpha, grad []float64
}

// Train fits a one-class SVM on the rows of data with a fresh
// Workspace. The model is bit-identical to one trained on a reused
// Workspace.
func Train(data [][]float64, cfg Config) (*OneClass, error) {
	var w Workspace
	return w.Train(data, cfg)
}

// Train fits a one-class SVM on the rows of data. It solves on w's
// buffers; the returned model shares no memory with w or data, and
// holds its support vectors once, in the matrix DecisionBatchInto
// reads.
func (w *Workspace) Train(data [][]float64, cfg Config) (*OneClass, error) {
	l := len(data)
	if l == 0 {
		return nil, errors.New("svm: empty training set")
	}
	d := len(data[0])
	if d == 0 {
		return nil, errors.New("svm: zero-dimensional training points")
	}
	for i, row := range data {
		if len(row) != d {
			return nil, fmt.Errorf("svm: row %d has %d features, want %d", i, len(row), d)
		}
	}
	if cfg.Nu <= 0 || cfg.Nu > 1 {
		return nil, fmt.Errorf("svm: nu = %v outside (0, 1]", cfg.Nu)
	}
	if cfg.Tol <= 0 {
		cfg.Tol = 1e-3
	}
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = 100 * l
		if cfg.MaxIter < 10000 {
			cfg.MaxIter = 10000
		}
	}
	gamma := cfg.Gamma
	if gamma <= 0 {
		gamma = scaleGamma(data)
	}

	// Precompute the kernel matrix, row-major in w.q; Deep Validation
	// caps per-SVM training sizes in the hundreds, so the l×l matrix is
	// small. Both halves get the same value, so row t of the matrix
	// holds the bits of column t and the gradient update below reads
	// rows contiguously. Every entry is written, so a reused matrix
	// needs no reset.
	w.q = resize(w.q, l*l)
	q := w.q
	for i := 0; i < l; i++ {
		for j := 0; j <= i; j++ {
			v := kernel(gamma, data[i], data[j])
			q[i*l+j] = v
			q[j*l+i] = v
		}
	}

	// Initialize α per libsvm: the first ⌊νl⌋ points at the upper
	// bound, the next taking the fractional remainder.
	w.alpha = resize(w.alpha, l)
	alpha := w.alpha
	clear(alpha)
	total := float64(cfg.Nu * float64(l))
	n := int(total)
	for i := 0; i < n && i < l; i++ {
		alpha[i] = 1
	}
	if n < l {
		alpha[n] = total - float64(n)
	}

	// Gradient G = Qα, assigned in full.
	w.grad = resize(w.grad, l)
	grad := w.grad
	for i := 0; i < l; i++ {
		qi := q[i*l : (i+1)*l]
		s := 0.0
		for j, a := range alpha {
			if a != 0 {
				s += float64(qi[j] * a)
			}
		}
		grad[i] = s
	}

	const tau = 1e-12
	iters := 0
	for ; iters < cfg.MaxIter; iters++ {
		// Maximal violating pair: i maximizes −G over α<1 (can grow),
		// j minimizes −G over α>0 (can shrink).
		i, j := -1, -1
		gmax, gmin := math.Inf(-1), math.Inf(1)
		for t := 0; t < l; t++ {
			if alpha[t] < 1 && -grad[t] > gmax {
				gmax = -grad[t]
				i = t
			}
			if alpha[t] > 0 && -grad[t] < gmin {
				gmin = -grad[t]
				j = t
			}
		}
		if i < 0 || j < 0 || gmax-gmin < cfg.Tol {
			break
		}

		qi, qj := q[i*l:(i+1)*l], q[j*l:(j+1)*l]
		a := qi[i] + qj[j] - 2*qi[j]
		if a <= 0 {
			a = tau
		}
		delta := (grad[j] - grad[i]) / a // step increasing α_i, decreasing α_j
		if delta > 0 {
			if room := 1 - alpha[i]; delta > room {
				delta = room
			}
			if alpha[j] < delta {
				delta = alpha[j]
			}
		} else {
			// The pair selection guarantees a descent direction with
			// delta ≥ 0; numerical ties can give 0, which the progress
			// check below treats as convergence.
			delta = 0
		}
		if delta == 0 {
			break
		}
		alpha[i] += delta
		alpha[j] -= delta
		for t := range grad {
			grad[t] += float64(delta * (qi[t] - qj[t]))
		}
	}

	// ρ: average gradient over free support vectors, or the bound
	// midpoint when none are free (libsvm's rule).
	var rho float64
	nFree := 0
	sumFree := 0.0
	ub, lb := math.Inf(1), math.Inf(-1)
	for t := 0; t < l; t++ {
		switch {
		case alpha[t] > 0 && alpha[t] < 1:
			nFree++
			sumFree += grad[t]
		case alpha[t] == 0:
			if grad[t] < ub {
				ub = grad[t]
			}
		default: // alpha == 1
			if grad[t] > lb {
				lb = grad[t]
			}
		}
	}
	if nFree > 0 {
		rho = sumFree / float64(nFree)
	} else {
		if math.IsInf(ub, 1) {
			ub = lb
		}
		if math.IsInf(lb, -1) {
			lb = ub
		}
		rho = (ub + lb) / 2
	}

	m := &OneClass{
		Kind:     KernelRBF,
		Gamma:    gamma,
		Nu:       cfg.Nu,
		Rho:      rho,
		Dim:      d,
		TrainedN: l,
		Iters:    iters,
	}
	nsv := 0
	for _, a := range alpha {
		if a > 0 {
			nsv++
		}
	}
	m.Support = make([][]float64, 0, nsv)
	m.Alpha = make([]float64, 0, nsv)
	for t, a := range alpha {
		if a > 0 {
			m.Support = append(m.Support, data[t])
			m.Alpha = append(m.Alpha, a)
		}
	}
	m.Flatten() // copies the support vectors out of data
	return m, nil
}

// resize returns buf with length n, reallocating only when its capacity
// is short. The contents are unspecified.
func resize(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// Decision evaluates f(x) = Σ αᵢK(xᵢ,x) − ρ: non-negative inside the
// estimated support, negative outside.
func (m *OneClass) Decision(x []float64) float64 {
	if len(x) != m.Dim {
		panic(fmt.Sprintf("svm: Decision input has %d features, model expects %d", len(x), m.Dim))
	}
	s := 0.0
	for i, sv := range m.Support {
		s += m.Alpha[i] * kernel(m.Gamma, sv, x)
	}
	return s - m.Rho
}

// kernel is the RBF kernel exp(−γ‖a − b‖²).
func kernel(gamma float64, a, b []float64) float64 {
	s := 0.0
	for i, v := range a {
		d := v - b[i]
		s += float64(d * d)
	}
	return math.Exp(-gamma * s)
}

// scaleGamma implements scikit-learn's gamma="scale":
// 1 / (n_features · Var(X)) with the variance pooled over all entries.
func scaleGamma(data [][]float64) float64 {
	d := len(data[0])
	n := 0
	mean := 0.0
	for _, row := range data {
		for _, v := range row {
			mean += v
			n++
		}
	}
	mean /= float64(n)
	variance := 0.0
	for _, row := range data {
		for _, v := range row {
			variance += float64((v - mean) * (v - mean))
		}
	}
	variance /= float64(n)
	if variance < 1e-12 {
		variance = 1e-12
	}
	return 1 / (float64(d) * variance)
}
