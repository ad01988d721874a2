// Batched decision evaluation.
//
// Deep Validation's serving hot path evaluates f(x) = Σ αᵢK(xᵢ,x) − ρ
// once per (layer, sample); at scale the per-call [][]float64 walk
// dominates. DecisionBatchInto walks a flattened, contiguous
// support-vector matrix but performs exactly the same floating-point
// operations in exactly the same order as the scalar Decision, so
// results are bit-identical — including NaN/±Inf propagation. Golden
// artifacts pin verdict bits, which is why no reassociated form (such
// as expanding ‖a−b‖² into ‖a‖² + ‖b‖² − 2a·b) exists.
package svm

import (
	"fmt"
	"math"
)

// DecisionBatchInto evaluates f(x) for every row of xs into dst, whose
// length must equal len(xs), and returns dst. The results are
// bit-identical to calling Decision per row. On a model from Train or
// Flatten it allocates nothing, which is what keeps steady-state
// scoring on an allocation diet; any other model is scored from a
// per-call copy of its support vectors.
func (m *OneClass) DecisionBatchInto(dst []float64, xs [][]float64) []float64 {
	if len(dst) != len(xs) {
		panic(fmt.Sprintf("svm: DecisionBatchInto dst holds %d slots for %d inputs", len(dst), len(xs)))
	}
	flat := m.flat
	if flat == nil {
		flat = flatten(m.Support, m.Dim)
	}
	d := m.Dim
	for bi, x := range xs {
		if len(x) != d {
			panic(fmt.Sprintf("svm: DecisionBatchInto input has %d features, model expects %d", len(x), d))
		}
		s := 0.0
		// Four support vectors per pass: each squared distance
		// still sums over features in ascending order with its own
		// accumulator, and the kernel contributions are added to s
		// in ascending support-vector order, so the result is
		// bit-identical to the one-vector-at-a-time loop — the four
		// independent accumulator chains just overlap in the FPU.
		i := 0
		for ; i+4 <= len(m.Alpha); i += 4 {
			r0 := flat[i*d : i*d+d]
			r1 := flat[(i+1)*d : (i+1)*d+d]
			r2 := flat[(i+2)*d : (i+2)*d+d]
			r3 := flat[(i+3)*d : (i+3)*d+d]
			var q0, q1, q2, q3 float64
			for j, xv := range x {
				dv0 := r0[j] - xv
				q0 += float64(dv0 * dv0)
				dv1 := r1[j] - xv
				q1 += float64(dv1 * dv1)
				dv2 := r2[j] - xv
				q2 += float64(dv2 * dv2)
				dv3 := r3[j] - xv
				q3 += float64(dv3 * dv3)
			}
			s += float64(m.Alpha[i] * math.Exp(-m.Gamma*q0))
			s += float64(m.Alpha[i+1] * math.Exp(-m.Gamma*q1))
			s += float64(m.Alpha[i+2] * math.Exp(-m.Gamma*q2))
			s += float64(m.Alpha[i+3] * math.Exp(-m.Gamma*q3))
		}
		for ; i < len(m.Alpha); i++ {
			row := flat[i*d : (i+1)*d]
			sq := 0.0
			for j, v := range row {
				dv := v - x[j]
				sq += float64(dv * dv)
			}
			s += float64(m.Alpha[i] * math.Exp(-m.Gamma*sq))
		}
		dst[bi] = s - m.Rho
	}
	return dst
}

// Flatten stores m's support vectors once: it copies them into one
// contiguous row-major matrix, the one DecisionBatchInto reads, and
// re-points each Support row at its full-capacity view of it, so the
// hot loops stay on a single cache-friendly allocation instead of
// chasing len(Support) pointers per evaluation. Train's models are
// born flat; core.DecodeValidator flattens every decoded model before
// the validator is shared. Flatten must not run concurrently with any
// other use of m. The gob encoding does not change.
func (m *OneClass) Flatten() {
	m.flat = flatten(m.Support, m.Dim)
	d := m.Dim
	for i := range m.Support {
		m.Support[i] = m.flat[i*d : (i+1)*d : (i+1)*d]
	}
}

// flatten copies support into a fresh len(support)×d row-major matrix.
func flatten(support [][]float64, d int) []float64 {
	flat := make([]float64, len(support)*d)
	for i, sv := range support {
		copy(flat[i*d:(i+1)*d], sv)
	}
	return flat
}
