//go:build !purego

package tensor

// AVX dispatch for the scoring hot-path kernels. The assembly versions
// in simd_amd64.s perform the identical per-element rounding sequence
// as the Go references (vectorized across independent output elements
// only), so enabling them never moves a bit in any verdict. AVX is
// gated on both the CPU feature flag and OS XSAVE support; everything
// else falls back to the pure-Go path. Building with the purego tag
// leaves this file and simd_amd64.s out, so amd64 runs the kernels of
// simd_generic.go, as a host without AVX would.

func cpuid(leaf uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() uint32

//go:noescape
func axpy4avx(d, b0, b1, b2, b3 *float64, n int, a0, a1, a2, a3 float64)

//go:noescape
func axpy4avx512(d, b0, b1, b2, b3 *float64, n int, a0, a1, a2, a3 float64)

//go:noescape
func axpy8avx512(d, b0, b1, b2, b3, b4, b5, b6, b7 *float64, n int, a0, a1, a2, a3, a4, a5, a6, a7 float64)

//go:noescape
func axpy1avx(d, b *float64, n int, a float64)

//go:noescape
func axpy1avx512(d, b *float64, n int, a float64)

//go:noescape
func addConstAVX(d *float64, n int, c float64)

//go:noescape
func reluAVX(dst, src *float64, n int)

var (
	useAVX    = detectAVX()
	useAVX512 = detectAVX512()
)

func detectAVX() bool {
	_, _, ecx, _ := cpuid(1)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	// XCR0 bits 1 (SSE) and 2 (AVX) must both be OS-enabled.
	return xgetbv0()&0x6 == 0x6
}

func detectAVX512() bool {
	if !detectAVX() {
		return false
	}
	maxLeaf, _, _, _ := cpuid(0)
	if maxLeaf < 7 {
		return false
	}
	_, ebx, _, _ := cpuid(7)
	const avx512f = 1 << 16
	if ebx&avx512f == 0 {
		return false
	}
	// XCR0 must also enable opmask (5), ZMM_Hi256 (6), Hi16_ZMM (7).
	return xgetbv0()&0xe6 == 0xe6
}

func axpy4(d, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64) {
	switch {
	case useAVX512 && len(d) > 0:
		axpy4avx512(&d[0], &b0[0], &b1[0], &b2[0], &b3[0], len(d), a0, a1, a2, a3)
	case useAVX && len(d) > 0:
		axpy4avx(&d[0], &b0[0], &b1[0], &b2[0], &b3[0], len(d), a0, a1, a2, a3)
	default:
		axpy4Generic(d, b0, b1, b2, b3, a0, a1, a2, a3)
	}
}

func axpy8(d, b0, b1, b2, b3, b4, b5, b6, b7 []float64, a0, a1, a2, a3, a4, a5, a6, a7 float64) {
	if useAVX512 && len(d) > 0 {
		axpy8avx512(&d[0], &b0[0], &b1[0], &b2[0], &b3[0], &b4[0], &b5[0], &b6[0], &b7[0],
			len(d), a0, a1, a2, a3, a4, a5, a6, a7)
		return
	}
	axpy4(d, b0, b1, b2, b3, a0, a1, a2, a3)
	axpy4(d, b4, b5, b6, b7, a4, a5, a6, a7)
}

func axpy1(d, b []float64, a float64) {
	switch {
	case useAVX512 && len(d) > 0:
		axpy1avx512(&d[0], &b[0], len(d), a)
	case useAVX && len(d) > 0:
		axpy1avx(&d[0], &b[0], len(d), a)
	default:
		axpy1Generic(d, b, a)
	}
}

// AddConstInto adds c to every element of d in place, one rounding per
// element — identical to the scalar loop.
func AddConstInto(d []float64, c float64) {
	if useAVX && len(d) > 0 {
		addConstAVX(&d[0], len(d), c)
		return
	}
	addConstGeneric(d, c)
}

// ReLUInto writes dst[i] = max-with-zero of src[i] using the exact
// comparison v > 0 (NaN and -0 map to +0). dst and src must have equal
// length; dst may alias src.
func ReLUInto(dst, src []float64) {
	if len(dst) != len(src) {
		panic("tensor: ReLUInto length mismatch")
	}
	if useAVX && len(dst) > 0 {
		reluAVX(&dst[0], &src[0], len(dst))
		return
	}
	reluGeneric(dst, src)
}
