//go:build !amd64 || purego

package tensor

func axpy4(d, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64) {
	axpy4Generic(d, b0, b1, b2, b3, a0, a1, a2, a3)
}

func axpy8(d, b0, b1, b2, b3, b4, b5, b6, b7 []float64, a0, a1, a2, a3, a4, a5, a6, a7 float64) {
	axpy4Generic(d, b0, b1, b2, b3, a0, a1, a2, a3)
	axpy4Generic(d, b4, b5, b6, b7, a4, a5, a6, a7)
}

func axpy1(d, b []float64, a float64) {
	axpy1Generic(d, b, a)
}

// AddConstInto adds c to every element of d in place, one rounding per
// element — identical to the scalar loop.
func AddConstInto(d []float64, c float64) {
	addConstGeneric(d, c)
}

// ReLUInto writes dst[i] = max-with-zero of src[i] using the exact
// comparison v > 0 (NaN and -0 map to +0). dst and src must have equal
// length; dst may alias src.
func ReLUInto(dst, src []float64) {
	if len(dst) != len(src) {
		panic("tensor: ReLUInto length mismatch")
	}
	reluGeneric(dst, src)
}
