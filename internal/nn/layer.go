// Package nn is a from-scratch convolutional neural network substrate:
// layers, backpropagation, a concurrent trainer, and model serialization.
//
// It exists because Deep Validation instruments a *trained* CNN: the
// framework needs per-layer activation taps during inference (paper
// Algorithm 2) and input gradients for the white-box attacks of the
// evaluation (Section IV-D5). Both fall out of the Layer contract below.
//
// One forward path: each layer's forward arithmetic lives once, in
// ForwardInfer, which writes into a Scratch arena (infer.go). Scoring
// and Fit call it directly. Training, input gradients and BatchNorm
// calibration call Forward, which runs the same ForwardInfer on the
// Context's own arena and records only what Backward needs: the input,
// the output or a dropout mask. Backward recomputes anything else (the
// im2col columns, the pool argmax, BatchNorm's x̂) from that record.
// The scalar arithmetic the arena kernels must reproduce bit for bit
// lives in the tests as an independent per-layer reference.
//
// Concurrency model: layers hold parameters but no per-call state. All
// forward caches and per-sample parameter gradients live in a Context,
// so any number of samples can flow through the same network
// concurrently. The trainer computes each sample's gradient on a
// worker's Context and adds the samples into the batch total in sample
// order, so a given seed produces the same model bits at any worker
// count.
package nn

import (
	"math/rand"

	"deepvalidation/internal/tensor"
)

// Param is a single learnable tensor with a stable name for
// serialization and optimizer state lookup.
type Param struct {
	Name  string
	Value *tensor.Tensor
}

// Layer is one component of a network. ForwardInfer computes the layer
// output for a single sample into a Scratch arena. Forward runs
// ForwardInfer on the Context's arena and records whatever Backward
// will need in ctx. Backward consumes the upstream gradient, accumulates
// parameter gradients into ctx, and returns the gradient with respect to
// the layer input.
type Layer interface {
	// Name returns a short human-readable identifier, unique within a
	// network (the builder enforces uniqueness by suffixing).
	Name() string
	// OutShape returns the output shape for a given input shape,
	// allowing architectures to be assembled without running data
	// through them.
	OutShape(in []int) []int
	// ForwardInfer computes the inference-mode output for one sample
	// into sc's buffers; it only reads x. See infer.go for the arena
	// rules.
	ForwardInfer(x *tensor.Tensor, sc *Scratch) *tensor.Tensor
	// Forward computes the output for one sample within ctx.
	Forward(x *tensor.Tensor, ctx *Context) *tensor.Tensor
	// Backward computes the input gradient for one sample; it must be
	// called after Forward with the same Context.
	Backward(grad *tensor.Tensor, ctx *Context) *tensor.Tensor
	// Params returns the learnable parameters, or nil for stateless
	// layers.
	Params() []*Param
}

// Context carries per-sample forward caches and parameter gradients.
// A Context must not be shared between concurrently processed samples.
//
// A Context owns a Scratch arena that every Forward on it writes into,
// so the activations Forward returns and the caches it records alias
// arena memory. They stay valid until the next Forward on the same
// Context: run Backward for one sample before the next sample's
// Forward, and copy any activation kept beyond that. The first layer
// records the caller's input by reference, so it must not change
// before Backward either. One Context can
// serve many samples in turn (the trainer gives each worker one and
// calls ResetCache and ResetGrads between samples).
type Context struct {
	train     bool
	calibrate bool
	rng       *rand.Rand
	sc        *Scratch
	cache     map[Layer]*tensor.Tensor
	grads     map[*Param]*tensor.Tensor
}

// NewContext returns a Context for forward/backward passes.
// train selects training behaviour (e.g. dropout active); rng supplies
// any stochastic layers and may be nil when train is false.
func NewContext(train bool, rng *rand.Rand) *Context {
	return &Context{
		train: train,
		rng:   rng,
		sc:    NewScratch(),
		cache: make(map[Layer]*tensor.Tensor),
		grads: make(map[*Param]*tensor.Tensor),
	}
}

// NewCalibrationContext returns a Context for a statistics-calibration
// forward pass: layers with running statistics (BatchNorm) fold the
// sample into them. Calibration passes must run single-threaded.
func NewCalibrationContext() *Context {
	c := NewContext(false, nil)
	c.calibrate = true
	return c
}

// Training reports whether this pass runs in training mode.
func (c *Context) Training() bool { return c.train }

// Calibrating reports whether this pass should refresh running
// statistics.
func (c *Context) Calibrating() bool { return c.calibrate }

// Rand returns the context's random source (nil in inference contexts
// that were created without one).
func (c *Context) Rand() *rand.Rand { return c.rng }

// record stores the one tensor l's Backward needs and passes out
// through, so a layer's Forward reads as one line.
func (c *Context) record(l Layer, cached, out *tensor.Tensor) *tensor.Tensor {
	c.cache[l] = cached
	return out
}

// cached returns what l's Forward recorded in this context, panicking
// if Forward was not called for l.
func (c *Context) cached(l Layer) *tensor.Tensor {
	v, ok := c.cache[l]
	if !ok {
		panic("nn: " + l.Name() + ": Backward before Forward")
	}
	return v
}

// AddGrad accumulates g into the gradient slot for p, allocating it on
// first use.
func (c *Context) AddGrad(p *Param, g *tensor.Tensor) {
	if acc, ok := c.grads[p]; ok {
		acc.AddInPlace(g)
		return
	}
	c.grads[p] = g.Clone()
}

// Grad returns the accumulated gradient for p, or nil if none was
// recorded.
func (c *Context) Grad(p *Param) *tensor.Tensor { return c.grads[p] }

// MergeGradsInto adds this context's parameter gradients into dst,
// keyed by parameter, allocating slots as needed. The caller controls
// iteration determinism by supplying the parameter order.
func (c *Context) MergeGradsInto(dst map[*Param]*tensor.Tensor, params []*Param) {
	for _, p := range params {
		g, ok := c.grads[p]
		if !ok {
			continue
		}
		if acc, ok := dst[p]; ok {
			acc.AddInPlace(g)
		} else {
			dst[p] = g.Clone()
		}
	}
}

// ResetGrads clears accumulated gradients but keeps forward caches,
// letting one context be reused across samples within a worker.
func (c *Context) ResetGrads() {
	for k := range c.grads {
		delete(c.grads, k)
	}
}

// ResetCache clears forward caches between samples.
func (c *Context) ResetCache() {
	for k := range c.cache {
		delete(c.cache, k)
	}
}
