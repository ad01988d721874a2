// The forward pass: every layer's ForwardInfer, over reusable scratch
// arenas.
//
// This file holds each layer's forward arithmetic, once. Scoring and
// Fit call ForwardInfer directly (through ForwardTappedScratch);
// training, input gradients and BatchNorm calibration reach it through
// Layer.Forward, which runs ForwardInfer on the Context's arena and
// records only what Backward needs (see the package comment). Each
// ForwardInfer writes into per-layer buffers owned by a Scratch arena,
// so a warmed-up pass allocates nothing.
//
// Equivalence contract: every ForwardInfer performs exactly the
// floating-point operations of the plain scalar definition of its
// layer, in the same order. Reused buffers are written
// element-for-element (never assumed zeroed), so stale contents cannot
// leak. The scalar definitions live in infer_test.go as a test-only
// per-layer reference; TestForwardTappedScratchBitEquivalent and
// TestForwardTappedScratchSpecialInputs pin every layer type against it
// bit for bit.
//
// Ownership rules (the scratch-arena discipline DESIGN.md §13 spells
// out):
//
//   - A Scratch must only ever be used by one goroutine at a time; give
//     each worker its own. Each Network keeps a bounded free list of
//     them (GetScratch/PutScratch): Forward and Predict take one per
//     call, core.Fit one per collection worker for the whole pass, and
//     kde one per fit or scoring call, and each hands it back when no
//     output of its passes is read any more. Each of core.Validator's
//     scoring states owns one, and every Context owns one.
//     ForwardTapped alone runs on a fresh arena, because its taps
//     belong to the caller.
//   - Tensors returned by ForwardInfer / ForwardTappedScratch alias
//     arena memory and are valid only until the next forward pass on
//     the same Scratch. Callers must copy anything they keep.
//   - Layers identify their buffers by (layer pointer, slot) keys, so
//     one arena can serve any number of networks without aliasing.
package nn

import (
	"math"

	"deepvalidation/internal/tensor"
)

// InferenceLayer is the arena forward contract. Every Layer carries
// ForwardInfer, so the two names denote one interface.
type InferenceLayer = Layer

// skey addresses one reusable buffer: a layer may own several slots.
type skey struct {
	l    Layer
	slot int
}

// Scratch is a per-goroutine arena of reusable forward-pass buffers,
// keyed by layer identity. The zero value is not usable; construct with
// NewScratch. See the package comment for the ownership rules.
type Scratch struct {
	tens  map[skey]*tensor.Tensor
	views map[skey]*tensor.Tensor
	taps  []*tensor.Tensor
}

// NewScratch returns an empty arena.
func NewScratch() *Scratch {
	return &Scratch{
		tens:  make(map[skey]*tensor.Tensor),
		views: make(map[skey]*tensor.Tensor),
	}
}

// tensor1 returns the key's cached rank-1 buffer of length n,
// (re)allocating only when the length changed.
func (sc *Scratch) tensor1(k skey, n int) *tensor.Tensor {
	if t, ok := sc.tens[k]; ok && len(t.Shape) == 1 && t.Shape[0] == n {
		return t
	}
	t := tensor.New(n)
	sc.tens[k] = t
	return t
}

// tensor2 returns the key's cached rank-2 buffer of shape (r, c).
func (sc *Scratch) tensor2(k skey, r, c int) *tensor.Tensor {
	if t, ok := sc.tens[k]; ok && len(t.Shape) == 2 && t.Shape[0] == r && t.Shape[1] == c {
		return t
	}
	t := tensor.New(r, c)
	sc.tens[k] = t
	return t
}

// tensor3 returns the key's cached rank-3 buffer of shape (c, h, w).
func (sc *Scratch) tensor3(k skey, c, h, w int) *tensor.Tensor {
	if t, ok := sc.tens[k]; ok && len(t.Shape) == 3 && t.Shape[0] == c && t.Shape[1] == h && t.Shape[2] == w {
		return t
	}
	t := tensor.New(c, h, w)
	sc.tens[k] = t
	return t
}

// like returns the key's cached buffer with x's shape.
func (sc *Scratch) like(k skey, x *tensor.Tensor) *tensor.Tensor {
	if t, ok := sc.tens[k]; ok && t.SameShape(x) {
		return t
	}
	t := tensor.New(x.Shape...)
	sc.tens[k] = t
	return t
}

// viewOf3 returns a cached rank-3 tensor header sharing data,
// rebuilding the header only when the backing slice or shape changed.
// Views let a buffer serve both a matrix multiply (rank 2) and the
// layer contract (rank 3) without per-call Reshape allocations. The
// dimensions are passed as scalars, not a slice: a variadic shape would
// allocate on every call and break the steady-state zero-alloc budget
// (TestForwardTappedScratchSteadyStateAllocs pins it).
func (sc *Scratch) viewOf3(k skey, data []float64, c, h, w int) *tensor.Tensor {
	if v, ok := sc.views[k]; ok && len(v.Data) == len(data) &&
		(len(data) == 0 || &v.Data[0] == &data[0]) &&
		len(v.Shape) == 3 && v.Shape[0] == c && v.Shape[1] == h && v.Shape[2] == w {
		return v
	}
	v := tensor.From(data, c, h, w)
	sc.views[k] = v
	return v
}

// viewOf1 is viewOf3's rank-1 form: a cached flat header over data.
func (sc *Scratch) viewOf1(k skey, data []float64) *tensor.Tensor {
	if v, ok := sc.views[k]; ok && len(v.Data) == len(data) &&
		(len(data) == 0 || &v.Data[0] == &data[0]) && len(v.Shape) == 1 {
		return v
	}
	v := tensor.From(data, len(data))
	sc.views[k] = v
	return v
}

// ForwardTappedScratch runs one sample through the network in inference
// mode on sc's reusable buffers and returns both the output
// probabilities and every layer's output (taps[i] is the output of
// Layers[i]; taps[len-1] aliases the returned probabilities). This is
// the single-pass probe Deep Validation's Algorithm 2 relies on: hidden
// representations come for free with the prediction. A warmed-up arena
// allocates nothing. The returned probabilities and taps alias arena
// memory and are valid only until the next forward pass on sc; callers
// must copy anything they retain.
func (n *Network) ForwardTappedScratch(x *tensor.Tensor, sc *Scratch) (probs *tensor.Tensor, taps []*tensor.Tensor) {
	taps = sc.taps[:0]
	for _, l := range n.Layers {
		x = l.ForwardInfer(x, sc)
		taps = append(taps, x)
	}
	sc.taps = taps
	return x, taps
}

// ForwardInfer implements Layer.
func (l *Seq) ForwardInfer(x *tensor.Tensor, sc *Scratch) *tensor.Tensor {
	for _, c := range l.Children {
		x = c.ForwardInfer(x, sc)
	}
	return x
}

// ForwardInfer implements Layer: im2col into a reused column buffer, a
// matrix multiply into a reused output buffer, and a cached rank-3
// view. Stride-1 convolutions skip the column matrix (see
// forwardInferDirect).
func (l *Conv2D) ForwardInfer(x *tensor.Tensor, sc *Scratch) *tensor.Tensor {
	if x.Rank() != 3 || x.Shape[0] != l.InC {
		panic("nn: " + l.LayerName + ": ForwardInfer input shape mismatch")
	}
	oh := tensor.ConvOutSize(x.Shape[1], l.KH, l.Stride, l.Pad)
	ow := tensor.ConvOutSize(x.Shape[2], l.KW, l.Stride, l.Pad)
	if l.Stride == 1 {
		return l.forwardInferDirect(x, sc, oh, ow)
	}
	area := oh * ow
	cols := sc.tensor2(skey{l, 0}, l.InC*l.KH*l.KW, area)
	tensor.Im2ColInto(cols, x, l.KH, l.KW, l.Stride, l.Pad)
	out := sc.tensor2(skey{l, 1}, l.OutC, area)
	tensor.MatMulInto(out, l.Weight.Value, cols)
	for f := 0; f < l.OutC; f++ {
		tensor.AddConstInto(out.Data[f*area:(f+1)*area], l.Bias.Value.Data[f])
	}
	return sc.viewOf3(skey{l, 2}, out.Data, l.OutC, oh, ow)
}

// forwardInferDirect convolves without materializing the im2col matrix.
// At stride 1 the im2col row for tap p = (c,ky,kx) is the zero-padded
// input plane read at a fixed flat offset, so each tap's contribution
// to a whole output plane is one contiguous multiply-add over a padded
// accumulator of row width pw = w+2·Pad. The accumulator's pad columns
// compute garbage that is dropped on copy-out; the real columns receive
// exactly the contributions of the im2col matmul — same values, same
// ascending-p order, same four-tap blocking and zero-weight skip — so
// the result is bit-identical to the im2col path.
func (l *Conv2D) forwardInferDirect(x *tensor.Tensor, sc *Scratch, oh, ow int) *tensor.Tensor {
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	area := oh * ow
	ph, pw := h+2*l.Pad, w+2*l.Pad
	ld := (oh-1)*pw + ow // accumulator length; tap reads end exactly at the padded buffer's last element

	padded := sc.tensor1(skey{l, 3}, c*ph*pw)
	for ch := 0; ch < c; ch++ {
		pp := padded.Data[ch*ph*pw : (ch+1)*ph*pw]
		zeroFloats(pp[:l.Pad*pw])
		for y := 0; y < h; y++ {
			row := pp[(l.Pad+y)*pw : (l.Pad+y+1)*pw]
			zeroFloats(row[:l.Pad])
			copy(row[l.Pad:l.Pad+w], x.Data[ch*h*w+y*w:ch*h*w+(y+1)*w])
			zeroFloats(row[l.Pad+w:])
		}
		zeroFloats(pp[(l.Pad+h)*pw:])
	}

	tap := func(p int) []float64 {
		ch, r := p/(l.KH*l.KW), p%(l.KH*l.KW)
		off := ch*ph*pw + (r/l.KW)*pw + r%l.KW
		return padded.Data[off : off+ld]
	}

	acc := sc.tensor1(skey{l, 4}, l.OutC*ld)
	zeroFloats(acc.Data)
	k := l.InC * l.KH * l.KW
	wd := l.Weight.Value.Data
	p := 0
	for ; p+8 <= k; p += 8 {
		b0, b1, b2, b3 := tap(p), tap(p+1), tap(p+2), tap(p+3)
		b4, b5, b6, b7 := tap(p+4), tap(p+5), tap(p+6), tap(p+7)
		for f := 0; f < l.OutC; f++ {
			d := acc.Data[f*ld : (f+1)*ld]
			wr := wd[f*k+p : f*k+p+8]
			if wr[0] == 0 || wr[1] == 0 || wr[2] == 0 || wr[3] == 0 ||
				wr[4] == 0 || wr[5] == 0 || wr[6] == 0 || wr[7] == 0 {
				for q := p; q < p+8; q++ {
					if av := wd[f*k+q]; av != 0 {
						tensor.Axpy(d, tap(q), av)
					}
				}
				continue
			}
			tensor.Axpy8(d, b0, b1, b2, b3, b4, b5, b6, b7,
				wr[0], wr[1], wr[2], wr[3], wr[4], wr[5], wr[6], wr[7])
		}
	}
	for ; p+4 <= k; p += 4 {
		b0, b1, b2, b3 := tap(p), tap(p+1), tap(p+2), tap(p+3)
		for f := 0; f < l.OutC; f++ {
			d := acc.Data[f*ld : (f+1)*ld]
			a0, a1, a2, a3 := wd[f*k+p], wd[f*k+p+1], wd[f*k+p+2], wd[f*k+p+3]
			if a0 == 0 || a1 == 0 || a2 == 0 || a3 == 0 {
				for q := p; q < p+4; q++ {
					if av := wd[f*k+q]; av != 0 {
						tensor.Axpy(d, tap(q), av)
					}
				}
				continue
			}
			tensor.Axpy4(d, b0, b1, b2, b3, a0, a1, a2, a3)
		}
	}
	for ; p < k; p++ {
		brow := tap(p)
		for f := 0; f < l.OutC; f++ {
			if av := wd[f*k+p]; av != 0 {
				tensor.Axpy(acc.Data[f*ld:(f+1)*ld], brow, av)
			}
		}
	}

	out := sc.tensor2(skey{l, 1}, l.OutC, area)
	for f := 0; f < l.OutC; f++ {
		src := acc.Data[f*ld : (f+1)*ld]
		dst := out.Data[f*area : (f+1)*area]
		for oy := 0; oy < oh; oy++ {
			copy(dst[oy*ow:(oy+1)*ow], src[oy*pw:oy*pw+ow])
		}
		tensor.AddConstInto(dst, l.Bias.Value.Data[f])
	}
	return sc.viewOf3(skey{l, 2}, out.Data, l.OutC, oh, ow)
}

func zeroFloats(s []float64) {
	for i := range s {
		s[i] = 0
	}
}

// ForwardInfer implements Layer: the window maxima, scanned in (ky,kx)
// order with strict > updates. Backward recomputes the argmax from the
// input with the same scan.
func (l *MaxPool2D) ForwardInfer(x *tensor.Tensor, sc *Scratch) *tensor.Tensor {
	if x.Rank() != 3 {
		panic("nn: " + l.LayerName + ": ForwardInfer expects (C,H,W) input")
	}
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	oh := tensor.ConvOutSize(h, l.K, l.Stride, 0)
	ow := tensor.ConvOutSize(w, l.K, l.Stride, 0)
	out := sc.tensor3(skey{l, 0}, c, oh, ow)
	oi := 0
	if l.K == 2 && l.Stride == 2 && h%2 == 0 && w%2 == 0 {
		// Every 2×2 window is fully in bounds: unrolled scan in the
		// same (ky,kx) order with the same strict > updates, so NaN
		// handling and results match the generic loop exactly.
		for ch := 0; ch < c; ch++ {
			plane := x.Data[ch*h*w : (ch+1)*h*w]
			for oy := 0; oy < oh; oy++ {
				r0 := plane[2*oy*w : 2*oy*w+w]
				r1 := plane[(2*oy+1)*w : (2*oy+1)*w+w]
				orow := out.Data[oi : oi+ow]
				for ox := range orow {
					x0 := 2 * ox
					best := r0[x0]
					if v := r0[x0+1]; v > best {
						best = v
					}
					if v := r1[x0]; v > best {
						best = v
					}
					if v := r1[x0+1]; v > best {
						best = v
					}
					orow[ox] = best
				}
				oi += ow
			}
		}
		return out
	}
	for ch := 0; ch < c; ch++ {
		plane := x.Data[ch*h*w : (ch+1)*h*w]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := -1
				bestV := 0.0
				for ky := 0; ky < l.K; ky++ {
					iy := oy*l.Stride + ky
					if iy >= h {
						break
					}
					for kx := 0; kx < l.K; kx++ {
						ix := ox*l.Stride + kx
						if ix >= w {
							break
						}
						idx := iy*w + ix
						if best < 0 || plane[idx] > bestV {
							best, bestV = idx, plane[idx]
						}
					}
				}
				out.Data[oi] = bestV
				oi++
			}
		}
	}
	return out
}

// ForwardInfer implements Layer.
func (l *AvgPool2D) ForwardInfer(x *tensor.Tensor, sc *Scratch) *tensor.Tensor {
	if x.Rank() != 3 {
		panic("nn: " + l.LayerName + ": ForwardInfer expects (C,H,W) input")
	}
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	oh := tensor.ConvOutSize(h, l.K, l.Stride, 0)
	ow := tensor.ConvOutSize(w, l.K, l.Stride, 0)
	out := sc.tensor3(skey{l, 0}, c, oh, ow)
	inv := 1.0 / float64(l.K*l.K)
	oi := 0
	for ch := 0; ch < c; ch++ {
		plane := x.Data[ch*h*w : (ch+1)*h*w]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				s := 0.0
				for ky := 0; ky < l.K; ky++ {
					iy := oy*l.Stride + ky
					if iy >= h {
						continue
					}
					for kx := 0; kx < l.K; kx++ {
						ix := ox*l.Stride + kx
						if ix >= w {
							continue
						}
						s += plane[iy*w+ix]
					}
				}
				out.Data[oi] = s * inv
				oi++
			}
		}
	}
	return out
}

// ForwardInfer implements Layer.
func (l *GlobalAvgPool) ForwardInfer(x *tensor.Tensor, sc *Scratch) *tensor.Tensor {
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	out := sc.tensor1(skey{l, 0}, c)
	inv := 1.0 / float64(h*w)
	for ch := 0; ch < c; ch++ {
		s := 0.0
		for _, v := range x.Data[ch*h*w : (ch+1)*h*w] {
			s += v
		}
		out.Data[ch] = s * inv
	}
	return out
}

// ForwardInfer implements Layer. MatVec is length-based, so no
// flattening reshape is needed.
func (l *Dense) ForwardInfer(x *tensor.Tensor, sc *Scratch) *tensor.Tensor {
	out := sc.tensor1(skey{l, 0}, l.Out)
	tensor.MatVecInto(out, l.Weight.Value, x)
	out.AddInPlace(l.Bias.Value)
	return out
}

// ForwardInfer implements Layer: max(0, x) into a scratch buffer. It
// deliberately does not write in place — x may be a tap the caller
// still observes, or the input a training Backward reads.
func (l *ReLU) ForwardInfer(x *tensor.Tensor, sc *Scratch) *tensor.Tensor {
	out := sc.like(skey{l, 0}, x)
	reluInto(out.Data, x.Data)
	return out
}

func reluInto(dst, src []float64) {
	tensor.ReLUInto(dst, src)
}

// ForwardInfer implements Layer: a numerically stable softmax (the
// maximum is subtracted before exponentiating) into a reused buffer.
func (l *Softmax) ForwardInfer(x *tensor.Tensor, sc *Scratch) *tensor.Tensor {
	out := sc.tensor1(skey{l, 0}, x.Len())
	m := x.Max()
	sum := 0.0
	for i, v := range x.Data {
		e := math.Exp(v - m)
		out.Data[i] = e
		sum += e
	}
	for i := range out.Data {
		out.Data[i] /= sum
	}
	return out
}

// ForwardInfer implements Layer: a cached flat view of x.
func (l *Flatten) ForwardInfer(x *tensor.Tensor, sc *Scratch) *tensor.Tensor {
	return sc.viewOf1(skey{l, 0}, x.Data)
}

// ForwardInfer implements Layer: inverted dropout is the identity in
// inference mode (Forward draws the training mask).
func (l *Dropout) ForwardInfer(x *tensor.Tensor, sc *Scratch) *tensor.Tensor {
	return x
}

// ForwardInfer implements Layer: the frozen-statistics normalization.
// Backward recomputes x̂ from the input rather than storing it.
func (l *BatchNorm) ForwardInfer(x *tensor.Tensor, sc *Scratch) *tensor.Tensor {
	if x.Rank() != 3 || x.Shape[0] != l.C {
		panic("nn: " + l.LayerName + ": ForwardInfer input shape mismatch")
	}
	h, w := x.Shape[1], x.Shape[2]
	area := h * w
	out := sc.tensor3(skey{l, 0}, l.C, h, w)
	for ch := 0; ch < l.C; ch++ {
		mean := l.RunMean.Data[ch]
		invStd := 1 / math.Sqrt(l.RunVar.Data[ch]+l.Eps)
		g, b := l.Gamma.Value.Data[ch], l.Beta.Value.Data[ch]
		in := x.Data[ch*area : (ch+1)*area]
		o := out.Data[ch*area : (ch+1)*area]
		for i, v := range in {
			n := (v - mean) * invStd
			o[i] = float64(g*n) + b
		}
	}
	return out
}
