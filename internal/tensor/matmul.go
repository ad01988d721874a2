package tensor

import "fmt"

// MatMul computes the matrix product a×b of two rank-2 tensors,
// returning a new (rows(a) × cols(b)) tensor. The inner dimensions must
// agree. The loop order is i-k-j so the innermost loop walks both
// operands sequentially, which keeps the hot path cache-friendly without
// resorting to assembly.
func MatMul(a, b *Tensor) *Tensor {
	checkRank2(a, "MatMul lhs")
	checkRank2(b, "MatMul rhs")
	m, ka := a.Shape[0], a.Shape[1]
	kb, n := b.Shape[0], b.Shape[1]
	if ka != kb {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %v x %v", a.Shape, b.Shape))
	}
	out := New(m, n)
	matMulInto(out.Data, a.Data, b.Data, m, ka, n)
	return out
}

// MatMulInto computes dst = a×b, reusing dst's storage. dst must have
// shape (rows(a) × cols(b)); its prior contents are overwritten.
func MatMulInto(dst, a, b *Tensor) {
	checkRank2(a, "MatMulInto lhs")
	checkRank2(b, "MatMulInto rhs")
	checkRank2(dst, "MatMulInto dst")
	m, ka := a.Shape[0], a.Shape[1]
	kb, n := b.Shape[0], b.Shape[1]
	if ka != kb {
		panic(fmt.Sprintf("tensor: MatMulInto inner dimension mismatch %v x %v", a.Shape, b.Shape))
	}
	if dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulInto dst shape %v, want [%d %d]", dst.Shape, m, n))
	}
	matMulInto(dst.Data, a.Data, b.Data, m, ka, n)
}

// matMulInto accumulates dst[i][j] = Σ_p a[i][p]·b[p][j] with the adds
// applied in ascending p per output element — the same rounding
// sequence as the plain i-p-j triple loop, so results are bit-identical
// (golden verdicts pin this). The loop nest is cache-blocked: columns
// are tiled so the output tile stays L1-resident, and within a tile
// four p-rows of b are applied to every output row before moving on,
// so b streams through cache once instead of once per output row.
// Blocks containing an exact zero weight fall back to the scalar path,
// which skips zero rows: the skip is semantically load-bearing (adding
// 0·b[j] would turn -0 sums into +0 and ±Inf·0 into NaN).
func matMulInto(dst, a, b []float64, m, k, n int) {
	for i := range dst {
		dst[i] = 0
	}
	// Tile width: keep the m output-row segments plus four b-row
	// segments (~(m+4)·jt·8 bytes) within a 32 KiB L1 budget.
	jt := 4096 / (m + 4) &^ 15
	if jt < 64 {
		jt = 64
	}
	if jt > n {
		jt = n
	}
	for j0 := 0; j0 < n; j0 += jt {
		j1 := j0 + jt
		if j1 > n {
			j1 = n
		}
		p := 0
		for ; p+8 <= k; p += 8 {
			b0 := b[p*n+j0 : p*n+j1]
			b1 := b[(p+1)*n+j0 : (p+1)*n+j1]
			b2 := b[(p+2)*n+j0 : (p+2)*n+j1]
			b3 := b[(p+3)*n+j0 : (p+3)*n+j1]
			b4 := b[(p+4)*n+j0 : (p+4)*n+j1]
			b5 := b[(p+5)*n+j0 : (p+5)*n+j1]
			b6 := b[(p+6)*n+j0 : (p+6)*n+j1]
			b7 := b[(p+7)*n+j0 : (p+7)*n+j1]
			for i := 0; i < m; i++ {
				arow := a[i*k : (i+1)*k]
				drow := dst[i*n+j0 : i*n+j1]
				if hasZero(arow[p : p+8]) {
					matMulAccumRange(drow, arow, b, p, p+8, n, j0, j1)
					continue
				}
				axpy8(drow, b0, b1, b2, b3, b4, b5, b6, b7,
					arow[p], arow[p+1], arow[p+2], arow[p+3],
					arow[p+4], arow[p+5], arow[p+6], arow[p+7])
			}
		}
		for ; p+4 <= k; p += 4 {
			b0 := b[p*n+j0 : p*n+j1]
			b1 := b[(p+1)*n+j0 : (p+1)*n+j1]
			b2 := b[(p+2)*n+j0 : (p+2)*n+j1]
			b3 := b[(p+3)*n+j0 : (p+3)*n+j1]
			for i := 0; i < m; i++ {
				arow := a[i*k : (i+1)*k]
				drow := dst[i*n+j0 : i*n+j1]
				a0, a1, a2, a3 := arow[p], arow[p+1], arow[p+2], arow[p+3]
				if a0 == 0 || a1 == 0 || a2 == 0 || a3 == 0 {
					matMulAccumRange(drow, arow, b, p, p+4, n, j0, j1)
					continue
				}
				axpy4(drow, b0, b1, b2, b3, a0, a1, a2, a3)
			}
		}
		if p < k {
			for i := 0; i < m; i++ {
				matMulAccumRange(dst[i*n+j0:i*n+j1], a[i*k:(i+1)*k], b, p, k, n, j0, j1)
			}
		}
	}
}

func hasZero(s []float64) bool {
	for _, v := range s {
		if v == 0 {
			return true
		}
	}
	return false
}

// matMulAccumRange applies p-rows [p0, p1) of the accumulation over the
// column window [j0, j1) with the original scalar semantics (including
// the zero-row skip). drow is the output-row segment for that window.
func matMulAccumRange(drow, arow, b []float64, p0, p1, n, j0, j1 int) {
	for p := p0; p < p1; p++ {
		av := arow[p]
		if av == 0 {
			continue
		}
		axpy1(drow, b[p*n+j0:p*n+j1], av)
	}
}

// MatMulTransB computes a × bᵀ for rank-2 tensors a (m×k) and b (n×k),
// returning an m×n tensor. It avoids materializing the transpose.
func MatMulTransB(a, b *Tensor) *Tensor {
	checkRank2(a, "MatMulTransB lhs")
	checkRank2(b, "MatMulTransB rhs")
	m, ka := a.Shape[0], a.Shape[1]
	n, kb := b.Shape[0], b.Shape[1]
	if ka != kb {
		panic(fmt.Sprintf("tensor: MatMulTransB inner dimension mismatch %v x %vᵀ", a.Shape, b.Shape))
	}
	out := New(m, n)
	for i := 0; i < m; i++ {
		arow := a.Data[i*ka : (i+1)*ka]
		drow := out.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b.Data[j*kb : (j+1)*kb]
			s := 0.0
			for p, av := range arow {
				s += float64(av * brow[p])
			}
			drow[j] = s
		}
	}
	return out
}

// MatMulTransA computes aᵀ × b for rank-2 tensors a (k×m) and b (k×n),
// returning an m×n tensor. It avoids materializing the transpose.
func MatMulTransA(a, b *Tensor) *Tensor {
	checkRank2(a, "MatMulTransA lhs")
	checkRank2(b, "MatMulTransA rhs")
	k, m := a.Shape[0], a.Shape[1]
	kb, n := b.Shape[0], b.Shape[1]
	if k != kb {
		panic(fmt.Sprintf("tensor: MatMulTransA inner dimension mismatch %vᵀ x %v", a.Shape, b.Shape))
	}
	out := New(m, n)
	for p := 0; p < k; p++ {
		arow := a.Data[p*m : (p+1)*m]
		brow := b.Data[p*n : (p+1)*n]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			drow := out.Data[i*n : (i+1)*n]
			for j, bv := range brow {
				drow[j] += float64(av * bv)
			}
		}
	}
	return out
}

// Transpose2D returns the transpose of a rank-2 tensor as a new tensor.
func Transpose2D(a *Tensor) *Tensor {
	checkRank2(a, "Transpose2D")
	m, n := a.Shape[0], a.Shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.Data[j*m+i] = a.Data[i*n+j]
		}
	}
	return out
}

// MatVec computes the matrix-vector product a×x for a rank-2 a (m×n) and
// a length-n vector x, returning a length-m rank-1 tensor.
func MatVec(a, x *Tensor) *Tensor {
	checkRank2(a, "MatVec lhs")
	m, n := a.Shape[0], a.Shape[1]
	if x.Len() != n {
		panic(fmt.Sprintf("tensor: MatVec dimension mismatch %v x vector(%d)", a.Shape, x.Len()))
	}
	out := New(m)
	for i := 0; i < m; i++ {
		row := a.Data[i*n : (i+1)*n]
		s := 0.0
		for j, v := range row {
			s += v * x.Data[j]
		}
		out.Data[i] = s
	}
	return out
}

// MatVecInto computes dst = a×x, reusing dst's storage. dst must be a
// length-m rank-1 tensor; the arithmetic matches MatVec exactly. Four
// rows are processed per pass with independent accumulators — each
// row's dot product still sums in ascending j, so results are
// bit-identical to MatVec, but the four dependency chains overlap
// instead of serializing on FP-add latency.
func MatVecInto(dst, a, x *Tensor) {
	checkRank2(a, "MatVecInto lhs")
	m, n := a.Shape[0], a.Shape[1]
	if x.Len() != n {
		panic(fmt.Sprintf("tensor: MatVecInto dimension mismatch %v x vector(%d)", a.Shape, x.Len()))
	}
	if dst.Len() != m {
		panic(fmt.Sprintf("tensor: MatVecInto dst length %d, want %d", dst.Len(), m))
	}
	xv := x.Data[:n]
	i := 0
	for ; i+4 <= m; i += 4 {
		r0 := a.Data[i*n : i*n+n]
		r1 := a.Data[(i+1)*n : (i+1)*n+n]
		r2 := a.Data[(i+2)*n : (i+2)*n+n]
		r3 := a.Data[(i+3)*n : (i+3)*n+n]
		var s0, s1, s2, s3 float64
		for j, v := range xv {
			s0 += float64(r0[j] * v)
			s1 += float64(r1[j] * v)
			s2 += float64(r2[j] * v)
			s3 += float64(r3[j] * v)
		}
		dst.Data[i] = s0
		dst.Data[i+1] = s1
		dst.Data[i+2] = s2
		dst.Data[i+3] = s3
	}
	for ; i < m; i++ {
		row := a.Data[i*n : (i+1)*n]
		s := 0.0
		for j, v := range row {
			s += float64(v * xv[j])
		}
		dst.Data[i] = s
	}
}

func checkRank2(t *Tensor, what string) {
	if t.Rank() != 2 {
		panic(fmt.Sprintf("tensor: %s must be rank 2, got shape %v", what, t.Shape))
	}
}
