package tensor

// Axpy4 applies the four-row multiply-add block
// d[j] = (((d[j] + a0*b0[j]) + a1*b1[j]) + a2*b2[j]) + a3*b3[j]
// for j in [0, len(d)), each add rounded separately in that order.
// The b slices must be at least len(d) long.
func Axpy4(d, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64) {
	axpy4(d, b0, b1, b2, b3, a0, a1, a2, a3)
}

// Axpy applies d[j] += a*b[j] for j in [0, len(d)), one rounding for
// the multiply and one for the add. b must be at least len(d) long.
func Axpy(d, b []float64, a float64) {
	axpy1(d, b, a)
}

// Axpy8 is two consecutive Axpy4 passes fused into one kernel call:
// per element the eight adds are applied in ascending tap order with
// identical rounding. The b slices must be at least len(d) long.
func Axpy8(d, b0, b1, b2, b3, b4, b5, b6, b7 []float64, a0, a1, a2, a3, a4, a5, a6, a7 float64) {
	axpy8(d, b0, b1, b2, b3, b4, b5, b6, b7, a0, a1, a2, a3, a4, a5, a6, a7)
}

// axpy4Generic is the portable reference for the four-row multiply-add
// block: d[j] = (((d[j] + a0*b0[j]) + a1*b1[j]) + a2*b2[j]) + a3*b3[j]
// with each product and each add rounded separately in ascending row
// order; the float64 conversions keep a target with a fused
// multiply-add from merging them. The AVX kernel must match it
// bit-for-bit on every input.
func axpy4Generic(d, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64) {
	b0 = b0[:len(d)]
	for j, v := range b0 {
		s := d[j] + float64(a0*v)
		s += float64(a1 * b1[j])
		s += float64(a2 * b2[j])
		s += float64(a3 * b3[j])
		d[j] = s
	}
}

// axpy1Generic is the portable reference for the single-row
// multiply-add: d[j] += a*b[j].
func axpy1Generic(d, b []float64, a float64) {
	b = b[:len(d)]
	for j, v := range b {
		d[j] += float64(a * v)
	}
}

// addConstGeneric is the portable reference for AddConstInto.
func addConstGeneric(d []float64, c float64) {
	for i := range d {
		d[i] += c
	}
}

// reluGeneric is the portable reference for ReLUInto.
func reluGeneric(dst, src []float64) {
	for i, v := range src {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}
