package corner

import (
	"math"
	"math/rand"

	"deepvalidation/internal/imgtrans"
)

// ParamRange bounds one continuous parameter of a transformation
// family. Neutral is the value at which the parameter distorts nothing
// (β = 0, α = 1, θ = 0, ...); minimizers shrink escapes toward it.
type ParamRange struct {
	Name              string
	Min, Max, Neutral float64
}

// Space is one transformation family's continuous parameter space —
// the search domain the corner-case miner explores, generalizing the
// fixed grids of Families to arbitrary points. Make materializes a
// parameter vector (one value per ParamRange, already clamped) into a
// concrete transform.
type Space struct {
	Family string
	Params []ParamRange
	Make   func(p []float64) imgtrans.Transform
}

// Sample draws a uniform random parameter vector from the space.
func (s Space) Sample(rng *rand.Rand) []float64 {
	p := make([]float64, len(s.Params))
	for i, r := range s.Params {
		p[i] = r.Min + float64(rng.Float64()*(r.Max-r.Min))
	}
	return p
}

// Clamp forces p into the space's bounds in place (NaNs land on the
// neutral value) and returns it, so arbitrary inputs — a fuzzer's raw
// bytes, an over-stepped mutation — always materialize into a
// well-defined transform.
func (s Space) Clamp(p []float64) []float64 {
	for i, r := range s.Params {
		switch {
		case math.IsNaN(p[i]):
			p[i] = r.Neutral
		case p[i] < r.Min:
			p[i] = r.Min
		case p[i] > r.Max:
			p[i] = r.Max
		}
	}
	return p
}

// Neutral returns the no-op parameter vector.
func (s Space) Neutral() []float64 {
	p := make([]float64, len(s.Params))
	for i, r := range s.Params {
		p[i] = r.Neutral
	}
	return p
}

// Spaces returns the parameterized transformation spaces for images of
// the given geometry. The ranges follow Table IV where the paper fixes
// them (brightness, contrast, rotation, shear) and scale with the image
// for the pixel-denominated families (translation, occlusion), so the
// same search runs on 8×8 toy images and 28×28 digits. Complement is
// grayscale-only, as in Families. Scale's lower bound stays well away
// from zero: a zero scale ratio is a singular affine matrix.
func Spaces(grayscale bool, height, width int) []Space {
	h, w := float64(height), float64(width)
	maxShift := math.Max(1, 0.6*math.Min(h, w))
	maxPatch := math.Max(1, math.Floor(math.Min(h, w)/2))
	spaces := []Space{
		{
			Family: "brightness",
			Params: []ParamRange{{Name: "beta", Min: -0.95, Max: 0.95, Neutral: 0}},
			Make: func(p []float64) imgtrans.Transform {
				return imgtrans.Brightness{Beta: p[0]}
			},
		},
		{
			Family: "contrast",
			Params: []ParamRange{{Name: "alpha", Min: 0.2, Max: 5, Neutral: 1}},
			Make: func(p []float64) imgtrans.Transform {
				return imgtrans.Contrast{Alpha: p[0]}
			},
		},
		{
			Family: "rotation",
			Params: []ParamRange{{Name: "theta_deg", Min: -70, Max: 70, Neutral: 0}},
			Make: func(p []float64) imgtrans.Transform {
				return imgtrans.Rotation(p[0])
			},
		},
		{
			Family: "shear",
			Params: []ParamRange{
				{Name: "s_h", Min: -0.5, Max: 0.5, Neutral: 0},
				{Name: "s_v", Min: -0.5, Max: 0.5, Neutral: 0},
			},
			Make: func(p []float64) imgtrans.Transform {
				return imgtrans.Shear(p[0], p[1])
			},
		},
		{
			Family: "scale",
			Params: []ParamRange{
				{Name: "s_x", Min: 0.4, Max: 1.6, Neutral: 1},
				{Name: "s_y", Min: 0.4, Max: 1.6, Neutral: 1},
			},
			Make: func(p []float64) imgtrans.Transform {
				return imgtrans.Scale(p[0], p[1])
			},
		},
		{
			Family: "translation",
			Params: []ParamRange{
				{Name: "t_x", Min: -maxShift, Max: maxShift, Neutral: 0},
				{Name: "t_y", Min: -maxShift, Max: maxShift, Neutral: 0},
			},
			Make: func(p []float64) imgtrans.Transform {
				return imgtrans.Translation(math.Round(p[0]), math.Round(p[1]))
			},
		},
		{
			Family: "blur",
			Params: []ParamRange{{Name: "sigma", Min: 0, Max: 4, Neutral: 0}},
			Make: func(p []float64) imgtrans.Transform {
				return imgtrans.GaussianBlur{Sigma: p[0]}
			},
		},
		{
			Family: "noise",
			Params: []ParamRange{
				{Name: "sigma", Min: 0, Max: 0.3, Neutral: 0},
				{Name: "seed", Min: 0, Max: 1 << 20, Neutral: 0},
			},
			Make: func(p []float64) imgtrans.Transform {
				return imgtrans.AdditiveNoise{Sigma: p[0], Seed: int64(math.Round(p[1]))}
			},
		},
		{
			Family: "occlusion",
			Params: []ParamRange{
				{Name: "x", Min: 0, Max: math.Max(0, w-1), Neutral: 0},
				{Name: "y", Min: 0, Max: math.Max(0, h-1), Neutral: 0},
				{Name: "size", Min: 1, Max: maxPatch, Neutral: 1},
				{Name: "fill", Min: 0, Max: 1, Neutral: 0},
			},
			Make: func(p []float64) imgtrans.Transform {
				return imgtrans.Occlusion{
					X:    int(math.Round(p[0])),
					Y:    int(math.Round(p[1])),
					Size: int(math.Round(p[2])),
					Fill: p[3],
				}
			},
		},
	}
	if grayscale {
		spaces = append(spaces, Space{
			Family: "complement",
			Make: func([]float64) imgtrans.Transform {
				return imgtrans.Complement{}
			},
		})
	}
	return spaces
}

// SpaceByFamily finds a family's space by name.
func SpaceByFamily(spaces []Space, family string) (Space, bool) {
	for _, s := range spaces {
		if s.Family == family {
			return s, true
		}
	}
	return Space{}, false
}
