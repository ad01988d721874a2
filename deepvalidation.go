// Package deepvalidation is the public API of this repository: a
// runtime corner-case detector for convolutional image classifiers,
// reproducing "Deep Validation: Toward Detecting Real-World Corner
// Cases for Deep Neural Networks" (Wu et al., DSN 2019).
//
// The core idea: a trained CNN's hidden layers each have a valid input
// region learned from the training data. Deep Validation models those
// regions with one one-class SVM per (layer, class) fitted on the
// hidden representations of correctly classified training images, and
// scores every prediction by its joint discrepancy — how far each
// layer's activation sits outside the reference region of the predicted
// class. Inputs whose discrepancy exceeds a calibrated threshold ε are
// flagged so the surrounding system can fail safe.
//
// Typical use:
//
//	det, err := deepvalidation.Build(trainImages, trainLabels, deepvalidation.BuildConfig{Classes: 10})
//	...
//	det.Calibrate(cleanImages, 0.05) // ≤5% false positives
//	v, err := det.Check(img)
//	if !v.Valid {
//	    // reject the prediction, alert an operator, engage a fallback
//	}
//
// The heavy machinery (tensors, the CNN substrate, the SMO solver, the
// experiment harness) lives under internal/; this package exposes the
// workflow a downstream system needs: build or load a detector,
// calibrate its threshold, check inputs, persist everything.
package deepvalidation

import (
	"fmt"
	"math"

	"deepvalidation/internal/tensor"
)

// Image is a C×H×W image with pixel values in [0, 1], stored
// channel-major (all of channel 0's rows, then channel 1's, ...).
//
// Scoring (Check, CheckDetailed, CheckBatch, CheckBatchDetailed and
// Calibrate) reads Pixels in place for the duration of the call: it
// never writes them and keeps no reference once it returns, so the
// caller owns the slice again afterwards, but must not modify it while
// the call runs. Build copies the pixels it trains on.
type Image struct {
	Channels int
	Height   int
	Width    int
	// Pixels holds Channels·Height·Width values in [0, 1].
	Pixels []float64
}

// Validate checks the image's invariants: positive dimensions whose
// product matches the pixel count without overflowing, and finite
// pixel values (NaN or ±Inf pixels would silently poison every
// downstream activation).
func (im Image) Validate() error {
	if im.Channels <= 0 || im.Height <= 0 || im.Width <= 0 {
		return fmt.Errorf("deepvalidation: non-positive image dimensions (%d,%d,%d)", im.Channels, im.Height, im.Width)
	}
	// Multiply with overflow guards: adversarial dimensions like
	// (2^32, 2^32, 1) must not wrap around to a plausible pixel count.
	want := im.Channels
	for _, d := range [...]int{im.Height, im.Width} {
		if want > math.MaxInt/d {
			return fmt.Errorf("deepvalidation: image dimensions (%d,%d,%d) overflow", im.Channels, im.Height, im.Width)
		}
		want *= d
	}
	if len(im.Pixels) != want {
		return fmt.Errorf("deepvalidation: image has %d pixels, want %d", len(im.Pixels), want)
	}
	for i, p := range im.Pixels {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			return fmt.Errorf("deepvalidation: pixel %d is %v; pixels must be finite", i, p)
		}
	}
	return nil
}

// tensorOf validates im and copies its pixels into a tensor, for
// tensors that outlive the call that made them.
func tensorOf(im Image) (*tensor.Tensor, error) {
	if err := im.Validate(); err != nil {
		return nil, err
	}
	return tensor.From(append([]float64(nil), im.Pixels...), im.Channels, im.Height, im.Width), nil
}

// ImageOf views the C×H×W tensor x as an Image sharing its pixels; it
// is the inverse of tensorOf, for the commands, examples and tests in
// this module that hold internal tensors.
func ImageOf(x *tensor.Tensor) Image {
	return Image{Channels: x.Shape[0], Height: x.Shape[1], Width: x.Shape[2], Pixels: x.Data}
}

// ImagesOf is ImageOf over a slice.
func ImagesOf(xs []*tensor.Tensor) []Image {
	out := make([]Image, len(xs))
	for i, x := range xs {
		out[i] = ImageOf(x)
	}
	return out
}

func tensorsOf(ims []Image) ([]*tensor.Tensor, error) {
	out := make([]*tensor.Tensor, len(ims))
	for i, im := range ims {
		t, err := tensorOf(im)
		if err != nil {
			return nil, fmt.Errorf("image %d: %w", i, err)
		}
		out[i] = t
	}
	return out, nil
}
